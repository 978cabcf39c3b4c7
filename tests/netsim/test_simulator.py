"""Tests for the discrete-event engine."""

import gc
import math
from functools import partial

import pytest

from repro.netsim import SimulationError, Simulator, Timer


def test_initial_time_is_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_nan_is_refused_and_time_never_runs_backwards():
    """A NaN key would sort anywhere in the heap (here: 1.0, 0.5, NaN,
    2.0, the clock stepping back from 1.0 to 0.5); it is refused like a
    negative delay, by every way into the queue."""
    sim = Simulator()
    seen = []
    sim.post(1.0, lambda: seen.append(sim.now))
    timer = Timer(sim, lambda: None)
    for refused in (
        lambda: sim.post(math.nan, print),
        lambda: sim.post_at(math.nan, print),
        lambda: sim.schedule(math.nan, print),
        lambda: sim.schedule_at(math.nan, print),
        lambda: timer.start(math.nan),
    ):
        with pytest.raises(SimulationError):
            refused()
    sim.post(2.0, lambda: seen.append(sim.now))
    sim.post(0.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5, 1.0, 2.0]
    assert sim.pending_events == 0 and not timer.running


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append("x"))
    timer.start(1.0)
    timer.stop()
    sim.run()
    assert fired == []
    assert not timer.running


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    timer.stop()
    timer.stop()
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_processed == 0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, lambda: seen.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_max_events_limit():
    sim = Simulator()
    count = []

    def tick():
        count.append(1)
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run(max_events=50)
    assert len(count) == 50


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.0, reenter)
    sim.run()
    assert len(errors) == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_is_paused_for_the_loop_and_restored(enabled):
    """The cyclic collector is off inside every callback, and ``run``
    leaves it as it found it, also when a callback raises."""
    was = gc.isenabled()

    def boom():
        raise RuntimeError("boom")

    try:
        gc.enable() if enabled else gc.disable()
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled() is enabled
        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_rng_determinism():
    values_a = Simulator(seed=7).rng.random()
    values_b = Simulator(seed=7).rng.random()
    assert values_a == values_b
    assert Simulator(seed=8).rng.random() != values_a


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    timer.stop()
    assert sim.pending_events == 1


def test_post_and_schedule_tie_break_by_insertion_order():
    """Posts share the (time, seq) ordering with timer entries —
    mixing the two must keep insertion order."""
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "a")
    Timer(sim, partial(order.append, "timer")).start(1.0)
    sim.post(1.0, order.append, "b")
    sim.schedule_at(1.0, order.append, "c")
    sim.post_at(1.0, order.append, "d")
    sim.run()
    assert order == ["a", "timer", "b", "c", "d"]


def test_post_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-0.1, lambda: None)


def test_post_at_rejects_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(0.5, lambda: None)


def test_peak_queue_len_high_water_mark():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.post(6.0, lambda: None)
    sim.run()
    assert sim.peak_queue_len == 6


def test_compaction_preserves_order_and_live_events():
    """Cancelling most of a large heap triggers in-place compaction;
    the surviving events must still run in order."""
    sim = Simulator()
    order = []
    timers = [Timer(sim, partial(order.append, i)) for i in range(200)]
    for i, timer in enumerate(timers):
        timer.start(float(i))
    for i, timer in enumerate(timers):
        if i % 10:
            timer.stop()
    assert sim.pending_events == 20
    assert len(sim._queue) < 200  # compacted
    sim.run()
    assert order == list(range(0, 200, 10))


def test_close_drops_the_queue_keeps_the_counters_and_ends_scheduling():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append("timer"))
    timer.start(5.0)
    for t in (1.0, 2.0, 9.0):
        sim.post(t, fired.append, t)
    sim.run(until=3.0)
    sim.close()
    sim.close()  # idempotent
    assert fired == [1.0, 2.0]
    assert (sim.events_processed, sim.peak_queue_len, sim.pending_events, sim.now) == (2, 4, 0, 3.0)
    for use in (sim.run, lambda: sim.post(0.0, print), lambda: sim.post_at(4.0, print),
                lambda: sim.schedule(0.0, print), lambda: timer.start(1.0),
                lambda: timer.start(10.0)):  # fresh arm and in-place re-arm
        with pytest.raises(SimulationError, match="closed"):
            use()
    assert Simulator().run() == 0.0  # only this instance is closed


def test_stopping_a_running_timer_after_close_counts_nothing():
    sim = Simulator()
    timer = Timer(sim, print)
    timer.start(1.0)
    sim.close()
    timer.stop()
    assert not timer.running
    assert sim.pending_events == 0


def test_close_from_inside_an_event_is_refused():
    sim = Simulator()
    seen = []

    def closing():
        with pytest.raises(SimulationError):
            sim.close()
        seen.append("tried")

    sim.post(1.0, closing)
    sim.post(2.0, seen.append, "later")
    sim.run()
    assert seen == ["tried", "later"]


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]
        assert not timer.running

    def test_restart_replaces_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_expires_at(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert timer.expires_at is None
        timer.start(2.5)
        assert timer.expires_at == 2.5

    def test_refused_restart_leaves_the_timer_armed(self):
        """The delay is checked before anything changes: a refused
        restart neither stops nor re-arms a running timer."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        for bad in (-0.5, math.nan):
            with pytest.raises(SimulationError):
                timer.start(bad)
        assert timer.running and timer.expires_at == 1.0
        sim.run()
        assert fired == [1.0]

    def test_can_restart_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))

        def periodic():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer._callback = periodic
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestTimerRearm:
    """Re-arm-in-place semantics: restarting a running timer to a
    strictly later deadline leaves the queued heap entry untouched,
    yet externally behaves exactly like cancel + reschedule."""

    def test_restart_to_earlier_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.start(1.0)  # earlier: falls back to cancel + reschedule
        sim.run()
        assert fired == [1.0]

    def test_restart_after_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(2.0)
        sim.run()
        assert fired == [1.0, 3.0]

    def test_stop_start_race_with_stale_entry(self):
        """Stop + restart while a stale (re-armed past) entry is still
        queued: the timer fires once, at the newest deadline only."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(5.0)  # re-arms in place; stale entry stays at 1.0
        timer.stop()
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]
        assert sim.pending_events == 0

    def test_stop_after_in_place_rearm(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(5.0)
        timer.stop()
        assert not timer.running
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_rearm_consumes_seq_like_reschedule(self):
        """The deterministic-schedule contract: a re-armed timer draws
        its tie-break seq at start() time, so it still fires before an
        event scheduled (at the same instant) after the restart."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(1.0)
        timer.start(2.0)  # in-place re-arm draws a seq here
        sim.schedule_at(2.0, order.append, "event")
        sim.run()
        assert order == ["timer", "event"]

    def test_equal_deadline_restart_draws_fresh_seq(self):
        """Restarting to the *same* deadline must behave like cancel +
        reschedule: the timer fires under a seq drawn at the restart,
        so an event scheduled between the two start() calls (at the
        shared deadline) fires first.  Regression test: an in-place
        re-arm here would fire the queued entry under its original seq
        and order the timer ahead of the event."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(1.0)
        sim.schedule_at(1.0, order.append, "event")
        timer.start(1.0)  # equal deadline: falls back to cancel+reschedule
        sim.run()
        assert order == ["event", "timer"]

    def test_equal_deadline_restart_at_zero_delay(self):
        """Same contract with delay=0 (ZERO_COST-style collapsed
        timestamps): the last start() wins the tie-break draw."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(0.0)
        sim.schedule_at(0.0, order.append, "event")
        timer.start(0.0)
        sim.run()
        assert order == ["event", "timer"]

    def test_retransmission_style_pushback(self):
        """The RTO/heartbeat pattern the fast path exists for: the
        deadline is pushed out repeatedly and the timer fires exactly
        once, at the final deadline."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        for i in range(1, 6):  # pushes at 0.4, 0.8, ... 2.0
            sim.schedule(0.4 * i, timer.start, 1.0)
        sim.run()
        assert fired == [3.0]

    def test_expires_at_tracks_rearm(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.start(4.0)
        assert timer.running
        assert timer.expires_at == 4.0
        sim.run()
        assert timer.expires_at is None
