"""GC-tracked objects per ``Timer`` arm (box-independent gate).

A timer is its own queue entry: arming one pushes a single
``(deadline, seq, timer, None)`` tuple and allocates nothing else the
collector tracks — no event record, handle or bound method.  Stopping
it allocates nothing, and pushing a running timer's deadline out
touches no queue state at all.  The heap is kept below the 64-entry
compaction threshold so that every dead entry stays queued and the
count is exact.
"""

import gc

from repro.netsim.simulator import Simulator, Timer

N = 20  # first arms plus stop/re-arms: 2 * N entries, below the threshold


def tracked_growth(action) -> int:
    """GC-tracked objects alive after ``action()`` that were not before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        action()
        return len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


def arm_all(timers, delay):
    for timer in timers:
        timer.start(delay)


def stop_and_rearm_all(timers, delay):
    for timer in timers:
        timer.stop()
        timer.start(delay)


def test_each_arm_adds_one_tracked_object():
    sim = Simulator()
    Timer(sim, lambda: None).start(0.5)  # warm the path outside the count
    timers = [Timer(sim, lambda: None) for _ in range(N)]

    assert tracked_growth(lambda: arm_all(timers, 1.0)) == N
    assert tracked_growth(lambda: stop_and_rearm_all(timers, 1.0)) == N
    assert tracked_growth(lambda: arm_all(timers, 2.0)) == 0  # re-armed in place
    assert len(sim._queue) == 2 * N + 1 and sim.pending_events == N + 1

    sim.run()
    assert sim.pending_events == 0 and not any(timer.running for timer in timers)
