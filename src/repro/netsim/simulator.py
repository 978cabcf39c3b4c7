"""Discrete-event simulation engine.

Everything in the reproduction runs on virtual time provided by
:class:`Simulator`.  Events are callbacks scheduled at absolute virtual
times; ties are broken by insertion order, which makes runs fully
deterministic for a given seed.

The scheduler is one binary heap of plain ``(time, seq, ...)`` tuples
driven through the C ``heapq`` functions (DESIGN.md §10): ``seq`` is
unique, so sift comparisons stay in C and never reach the callback.

Only a :class:`Timer` can be cancelled.  Each arm is one
``(deadline, seq, timer, None)`` entry and the timer records the seq
of its one live entry, so stopping it leaves a dead entry behind that
is skipped when it surfaces, or dropped when dead entries outnumber
live ones and the heap is compacted.  Pushing a running timer's
deadline out does not touch the queue at all (re-arm in place).
"""

from __future__ import annotations

import gc
import heapq
import random
from contextlib import AbstractContextManager
from math import inf
from typing import Any, Callable, Optional

#: Compaction threshold: never compact queues smaller than this (the
#: rebuild cost would exceed the lazy-pop cost it saves).
_COMPACT_MIN = 64

#: ``max_events`` stand-in when the caller gave none.
_NO_BUDGET = 1 << 62


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class Disposable(AbstractContextManager):
    """Owns a system: leaving its ``with`` block runs ``dispose()`` (DESIGN.md §19)."""

    def __exit__(self, *exc_info) -> None:
        self.dispose()


class _ClosedCounter:
    """The seq counter of a closed simulator: drawing a seq from it
    raises, which refuses :meth:`Timer.start` without a branch of its own."""

    __slots__ = ()

    def __add__(self, _other):
        raise SimulationError("the simulator is closed")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random generator.  All stochastic
        behaviour in the network (loss, jitter) must draw from
        :attr:`rng` so that runs are reproducible.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        self._dead = 0  # queued Timer entries that are no longer live
        self._running = False
        self._events_processed = 0
        self._peak_queue_len = 0
        # Entries are (time, seq, callback, args) for posts and
        # (time, seq, Timer, None) for timer arms, so dispatch unpacks
        # every entry alike and tells the kinds apart by ``args is
        # None``; seq is unique, so heap comparisons never look past it.
        self._queue: list[tuple] = []
        #: Attached :class:`~repro.netsim.trace.Tracer`, or None.  Kept
        #: as a real attribute so the no-tracer check in packet hot
        #: paths is a single plain attribute load.
        self.tracer = None
        #: Attached :class:`~repro.invariants.InvariantSet`, or None —
        #: same zero-cost-when-absent contract as :attr:`tracer`: hook
        #: sites test ``sim.invariants is not None`` inline and no
        #: events are ever scheduled by the monitors, so an unarmed run
        #: is byte-identical to one on a build without them.
        self.invariants = None
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queued live entries.  O(1): queue length minus a
        maintained count of dead timer entries — popping a live entry
        costs no counter update at all."""
        return len(self._queue) - self._dead

    @property
    def peak_queue_len(self) -> int:
        """High-water mark of the event queue (including dead timer
        entries) — the perf ledger reports this."""
        return self._peak_queue_len

    @staticmethod
    def _closed(*_args, **_kwargs) -> None:
        raise SimulationError("the simulator is closed")

    @staticmethod
    def _no_queue() -> None:
        """A timer stopped after :meth:`close`: its entry went with the queue."""

    def close(self) -> None:
        """Teardown (DESIGN.md §19): drop the event queue and dispose the
        attached monitors.  Counters stay readable; scheduling, starting
        a timer or running afterwards raises :class:`SimulationError`;
        stopping one is a no-op.  Idempotent."""
        if self._running:
            raise SimulationError("close() from inside a running event")
        self._queue, self._dead = [], 0
        if self.invariants is not None:
            self.invariants.dispose()
            self.invariants = None
        # Shadowing the methods keeps a "closed?" branch off the hot path.
        self.post = self.post_at = self.schedule_at = self.run = self._closed
        self._note_cancelled = self._no_queue
        self._seq = _ClosedCounter()

    def _note_cancelled(self) -> None:
        """A queued timer entry died: bump the dead count and compact
        the heap when dead entries dominate it."""
        dead = self._dead + 1
        queue = self._queue
        n = len(queue)
        if n >= _COMPACT_MIN and dead * 2 > n:
            # In-place so `run`'s local binding of the list stays valid.
            # A timer entry is live while its seq is the timer's.
            queue[:] = [
                entry
                for entry in queue
                if entry[3] is not None or entry[2]._entry_seq == entry[1]
            ]
            heapq.heapify(queue)
            self._dead = 0
        else:
            self._dead = dead

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now.  The heap
        entry is the plain ``(time, seq, callback, args)`` tuple; nothing
        can cancel it (a :class:`Timer` is the cancellable event)."""
        if not delay >= 0:  # NaN too: it would run out of time order
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, callback, args))

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time`` (see :meth:`post`)."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    #: The same method under a second name (a wrapper of either sees
    #: each event once).
    schedule_at = post_at

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`post`, queued through its attribute so that a wrapper
        of ``post`` sees these events too."""
        self.post(delay, callback, *args)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        Returns the virtual time when the run stopped.  When ``until``
        is given the clock is advanced to ``until`` even if the queue
        drained earlier (matching how wall-clock time would pass).

        Note on accounting: a stale :class:`Timer` entry (one whose
        timer was re-armed in place to a later deadline) pops as a
        counted no-op that re-queues the timer, so ``events_processed``
        and the ``max_events`` budget include these — event counts can
        differ slightly from an engine that cancels eagerly.  Dead
        entries are skipped uncounted.

        The cyclic garbage collector is paused for the loop and left as
        it was found: per-event objects die by reference count, and its
        passes over a long run find nothing (DESIGN.md §10).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        done = start = self._events_processed
        limit = done + (max_events if max_events is not None else _NO_BUDGET)
        until_t = until if until is not None else inf
        queue = self._queue
        heappop = heapq.heappop
        peak = self._peak_queue_len
        collecting = gc.isenabled()
        gc.disable()
        try:
            while queue:
                # Heap length only shrinks at pops, so sampling here —
                # rather than on every push — still observes the true
                # high-water mark.
                qlen = len(queue)
                if qlen > peak:
                    peak = qlen
                entry = heappop(queue)
                time, seq, callback, args = entry
                if args is None:  # a timer arm: `callback` is the Timer
                    if callback._entry_seq != seq:  # stopped or re-armed since
                        self._dead -= 1
                        continue
                    callback, args = callback._entry_fired, ()
                if time > until_t or done >= limit:
                    # Not due in this run: back it goes, under the key
                    # it was popped with, so the order is untouched.
                    heapq.heappush(queue, entry)
                    break
                self._now = time
                callback(*args)
                done += 1
                self._events_processed = done
        finally:
            self._running = False
            self._peak_queue_len = peak
            if collecting:
                gc.enable()
        if until is not None and self._now < until:
            stop_early = max_events is not None and done - start >= max_events
            if not stop_early:
                self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain.  Guards against runaway loops.

        ``max_events`` counts stale re-armed :class:`Timer` pops too
        (see :meth:`run`), so extremely timer-heavy workloads consume
        the budget slightly faster than their live event count.
        """
        self.run(max_events=max_events)
        if len(self._queue) - self._dead:
            raise SimulationError(
                f"simulation did not go idle within {max_events} events"
            )
        return self._now


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Wraps the schedule/cancel dance that protocol code (retransmission
    timers, delayed ACKs, failure detectors) does constantly.  The timer
    is its own queue entry, ``(deadline, seq, timer, None)``, and it
    records the seq and time of its one live entry; :meth:`stop` only
    forgets that seq, so the entry left queued is dead.

    Restarting to a *strictly later* deadline re-arms in place: the
    live entry is left untouched and only the logical deadline (plus a
    freshly drawn tie-break ``seq``) is recorded.  When the stale entry
    pops, the timer silently re-queues itself for the real deadline
    under that saved ``seq``.  Because every ``start`` draws a sequence
    number exactly like a cancel+reschedule would, tie-break order — and
    therefore the whole event schedule — is byte-identical to an eager
    implementation.  Restarting to an *equal* (or earlier) deadline
    pushes a fresh entry: an in-place re-arm would fire under the old
    entry's seq, ordering the timer ahead of events scheduled between
    the two ``start`` calls.
    """

    __slots__ = ("_sim", "_callback", "expires_at", "_seq", "_entry_seq", "_entry_time")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        #: Absolute virtual time the timer fires at, None while it is
        #: not running.  A plain slot: per-segment protocol code tests
        #: ``expires_at is None`` without a property frame.
        self.expires_at: Optional[float] = None
        # While running: `_entry_seq` / `_entry_time` key the live queue
        # entry and `_seq` is the seq the timer fires under (newer than
        # `_entry_seq` after an in-place re-arm).  Stopped: `_entry_seq`
        # is None, so no queued entry is live.
        self._seq = self._entry_seq = self._entry_time = None

    @property
    def running(self) -> bool:
        return self.expires_at is not None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        if not delay >= 0:  # checked first: a refused restart leaves the timer as it was
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sim = self._sim
        deadline = sim._now + delay
        seq = sim._seq
        sim._seq = seq + 1
        self._seq = seq
        running = self.expires_at is not None
        if running and deadline > self._entry_time:
            # Re-arm in place: the live entry stays queued and the seq
            # just drawn makes tie-breaks match a full cancel+reschedule.
            self.expires_at = deadline
            return
        self._entry_seq = seq
        self._entry_time = self.expires_at = deadline
        if running:  # the entry queued before is dead from here on
            sim._note_cancelled()
        heapq.heappush(sim._queue, (deadline, seq, self, None))

    def stop(self) -> None:
        if self.expires_at is not None:
            self.expires_at = self._entry_seq = None
            self._sim._note_cancelled()

    def _entry_fired(self) -> None:
        """The run loop popped this timer's live entry."""
        deadline = self.expires_at
        if deadline > self._entry_time:
            # The entry was stale (timer pushed out since it was queued):
            # move to the real deadline under the seq drawn at re-arm.
            seq = self._entry_seq = self._seq
            self._entry_time = deadline
            heapq.heappush(self._sim._queue, (deadline, seq, self, None))
            return
        self.expires_at = self._entry_seq = None
        self._callback()
