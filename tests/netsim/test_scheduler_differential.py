"""Differential scheduler suite (DESIGN.md §10).

The engine is one C-``heapq`` scheduler; what pins it is a reference
defined here — a sorted list and a timer that cancels its entry
eagerly, the obviously-correct ``(time, seq)`` schedule — plus the
fingerprints committed while the deleted timer wheel was still the
default engine:

* edge cases (equal deadlines, cancel-then-rearm, timer restart and
  push-out, infinite deadlines, mass cancellation, same-instant
  reentry), each on the engine and on the reference;
* randomized churn differential: an identical random op sequence driven
  into both must produce the identical firing trace;
* macro pins: the Figure 4 point, the D4 symmetric-partition digest
  and the mesh certify fingerprint must reproduce the values committed
  while both schedulers agreed on them (the fuzz corpus is pinned by
  ``tests/invariants/test_corpus_replay.py``).
"""

import hashlib
import json
import math
import random
from bisect import insort
from dataclasses import asdict
from functools import partial

import pytest

from repro.netsim.simulator import Simulator, Timer


class SortedListScheduler:
    """Reference scheduler: one sorted list of ``(time, seq, callback,
    args)``, popped from the front; cancelling removes the entry."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []

    def schedule_at(self, time, callback, *args):
        assert time >= self.now
        entry = (time, self._seq, callback, args)
        self._seq += 1
        insort(self._entries, entry)  # seq is unique: never compares callbacks
        return _SortedListHandle(self._entries, entry)

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    post = schedule

    @property
    def pending_events(self):
        return len(self._entries)

    def run(self, until=math.inf, max_events=None):
        while self._entries and self._entries[0][0] <= until:
            self.now, _, callback, args = self._entries.pop(0)
            callback(*args)
        if until != math.inf:
            self.now = until

    run_until_idle = run


class _SortedListHandle:
    def __init__(self, entries, entry):
        self._entries, self._entry = entries, entry

    def cancel(self):
        if self._entry in self._entries:
            self._entries.remove(self._entry)


class EagerTimer:
    """Reference timer: every ``start`` is cancel + schedule — the dance
    :class:`Timer`'s in-place re-arm must stay indistinguishable from —
    and ``stop`` removes the entry from the list."""

    def __init__(self, sim, callback):
        self._sim, self._callback, self._handle = sim, callback, None

    def start(self, delay):
        self.stop()
        self._handle = self._sim.schedule(delay, self._callback)

    def stop(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


#: (scheduler, its timer): the engine and the reference.
BOTH = [(Simulator, Timer), (SortedListScheduler, EagerTimer)]
both = pytest.mark.parametrize("sim_cls, timer_cls", BOTH, ids=["heap", "sorted-list"])


# -- edge cases --------------------------------------------------------------


@both
def test_equal_deadlines_fire_in_schedule_order(sim_cls, timer_cls):
    sim = sim_cls()
    fired = []
    # Interleave timer entries and posts at one instant.
    timer_cls(sim, partial(fired.append, "a")).start(0.5)
    sim.post(0.5, fired.append, "b")
    timer_cls(sim, partial(fired.append, "c")).start(0.5)
    sim.post(0.5, fired.append, "d")
    sim.run_until_idle()
    assert fired == ["a", "b", "c", "d"]
    assert sim.now == 0.5


@both
def test_cancel_then_rearm_at_same_tick(sim_cls, timer_cls):
    sim = sim_cls()
    fired = []
    timer = timer_cls(sim, partial(fired.append, "timer"))
    timer.start(1.0)
    timer.stop()
    sim.schedule(1.0, fired.append, "new")  # same instant
    timer.start(1.0)  # re-armed at the same tick: a fresh seq, after "new"
    sim.run_until_idle()
    assert fired == ["new", "timer"]
    assert sim.pending_events == 0


@both
def test_timer_restart_at_same_deadline(sim_cls, timer_cls):
    sim = sim_cls()
    fired = []
    timer = timer_cls(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    timer.start(2.0)  # equal deadline: cancel + reschedule path
    timer.start(2.0)
    sim.run_until_idle()
    assert fired == [2.0]


@both
def test_timer_pushout_then_fire(sim_cls, timer_cls):
    sim = sim_cls()
    fired = []
    timer = timer_cls(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run(until=0.5)
    timer.start(1.0)  # pushes the deadline out to 1.5 (re-arm in place)
    sim.run_until_idle()
    assert fired == [1.5]


@both
def test_infinite_deadline_parks_until_idle_drain(sim_cls, timer_cls):
    sim = sim_cls()
    fired = []
    sim.schedule(math.inf, fired.append, "inf-a")
    sim.schedule(1.0, fired.append, "near")
    sim.schedule(math.inf, fired.append, "inf-b")
    sim.run(until=2.0)
    assert fired == ["near"]
    assert sim.pending_events == 2
    sim.run_until_idle()
    assert fired == ["near", "inf-a", "inf-b"]


@both
def test_mass_cancellation_compacts_and_counts(sim_cls, timer_cls):
    sim = sim_cls()
    fired = []
    timers = [timer_cls(sim, partial(fired.append, i)) for i in range(500)]
    for i, timer in enumerate(timers):
        timer.start(1.0 + i * 0.001)
    for i, timer in enumerate(timers):
        if i % 10:
            timer.stop()
    assert sim.pending_events == 50
    sim.run_until_idle()
    assert fired == [i for i in range(500) if i % 10 == 0]
    assert sim.pending_events == 0


@both
def test_same_instant_reentry_runs_in_current_drain(sim_cls, timer_cls):
    """Events scheduled from a callback at zero delay run before time
    advances, after everything already queued for that instant."""
    sim = sim_cls()
    fired = []

    def first():
        fired.append("first")
        sim.post(0.0, lambda: fired.append("chained"))
        timer_cls(sim, lambda: fired.append("chained-timer")).start(0.0)

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run_until_idle()
    assert fired == ["first", "second", "chained", "chained-timer"]
    assert sim.now == 1.0


# -- randomized churn differential -------------------------------------------


def _churn_trace(sim_cls, timer_cls, seed: int) -> list:
    """Drive a random schedule/cancel/rearm workload; return the trace."""
    sim = sim_cls()
    rng = random.Random(seed)
    trace = []
    live = []  # one-shot timers, some of which get stopped

    def arm(delay, label):
        timer = timer_cls(sim, partial(fire, label))
        timer.start(delay)
        live.append(timer)

    def fire(label):
        trace.append((round(sim.now, 9), label))
        # Sometimes keep churning from inside the dispatch loop.
        if rng.random() < 0.3 and len(trace) < 3000:
            delay = rng.choice([0.0, 1e-6, rng.uniform(0, 0.05), rng.uniform(0, 5)])
            arm(delay, f"{label}.r")
        if rng.random() < 0.2:  # restart a timer mid-run: push-out, pull-in, tie
            timers[rng.randrange(4)].start(rng.choice([0.0, 0.5, rng.uniform(0, 30)]))

    timers = [timer_cls(sim, lambda i=i: trace.append((round(sim.now, 9), f"T{i}")))
              for i in range(4)]
    for step in range(400):
        op = rng.random()
        if op < 0.55:
            delay = rng.choice(
                [0.0, rng.uniform(0, 0.01), rng.uniform(0, 1), rng.uniform(0, 600)]
            )
            arm(delay, f"s{step}")
        elif op < 0.7:
            sim.post(rng.uniform(0, 2), fire, f"p{step}")
        elif op < 0.85 and live:
            live.pop(rng.randrange(len(live))).stop()
        else:
            timers[rng.randrange(4)].start(rng.choice([0.0, 0.5, rng.uniform(0, 30)]))
    sim.run_until_idle(max_events=20000)
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_churn_differential_engine_vs_reference(seed):
    """The engine against the sorted-list reference."""
    engine, reference = (_churn_trace(*pair, seed) for pair in BOTH)
    assert len(engine) > 250
    assert engine == reference


# -- macro pins ---------------------------------------------------------------
#
# Recorded at the last commit that had both schedulers, where the wheel
# and the heap agreed on every one of them.


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()


FIGURE4_POINT = {
    "clean": [142.01708643071106, 525.1500863818039],
    "no_redirection": [140.62746767559537, 521.830803114295],
    "primary_only": [139.59702265729143, 514.0352583510642],
    "primary_backup": [99.68992927276662, 483.34019225636087],
}
D4_SYMMETRIC_DIGEST = "064c9cc44d989fb64ba6c76379453f4a5042d6afdb9cbf55128615580dc85922"
MESH_CERTIFY_FINGERPRINT = (
    "e22a252abe34bed708c713123219c00eebf93e77409ba2fe2993c475642b1d46"
)


@pytest.mark.integration
def test_figure4_point_matches_pin():
    from repro.experiments.figure4 import run_figure4

    assert run_figure4(sizes=[64, 1024], nbuf=64) == FIGURE4_POINT


@pytest.mark.integration
def test_d4_symmetric_partition_matches_digest():
    from repro.experiments.partition import run_partition

    result = run_partition(variant="symmetric")
    assert result.detection_at == 9.818647599999984
    assert _digest(asdict(result)) == D4_SYMMETRIC_DIGEST


@pytest.mark.integration
def test_mesh_certify_point_matches_fingerprint():
    from repro.experiments.mesh_scaling import certify_point

    point = certify_point()
    assert point["green"] and point["completed"] == point["peak_concurrent"] == 10500
    assert point["median_response"] == 5.208760251
    assert point["fingerprint"] == MESH_CERTIFY_FINGERPRINT
