"""Discrete-event simulation engine.

Everything in the reproduction runs on virtual time provided by
:class:`Simulator`.  Events are callbacks scheduled at absolute virtual
times; ties are broken by insertion order, which makes runs fully
deterministic for a given seed.

The scheduler is one binary heap of plain ``(time, seq, ...)`` tuples
driven through the C ``heapq`` functions (DESIGN.md §10): ``seq`` is
unique, so sift comparisons stay in C and never reach the callback.

Cancellation is lazy — a cancelled entry stays queued until it
surfaces in dispatch order or until cancelled entries outnumber live
ones, at which point the heap is compacted.  :class:`Timer` absorbs
the cancel/reschedule churn of retransmission timers and heartbeats by
re-arming in place: pushing the deadline out does not touch the queue
at all.
"""

from __future__ import annotations

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


class _Event:
    """A scheduled callback.  Deliberately *not* comparable: ordering
    lives entirely in the ``(time, seq)`` tuple prefix of queue entries."""

    __slots__ = ("callback", "args", "cancelled", "queued")

    def __init__(self, callback: Callable[..., None], args: tuple):
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.queued = True


class EventHandle:
    """Cancellable handle returned by :meth:`Simulator.schedule`."""

    __slots__ = ("_sim", "_event", "_time")

    def __init__(self, sim: "Simulator", event: _Event, time: float):
        self._sim = sim
        self._event = event
        self._time = time

    @property
    def time(self) -> float:
        """Absolute virtual time the event fires at."""
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if event.queued:
                self._sim._note_cancelled()


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
        self._dead = 0  # queued entries whose event was cancelled
        self._running = False
        self._events_processed = 0
        self._peak_queue_len = 0
        # Entries are (time, seq, _Event, None) for cancellable events
        # and (time, seq, callback, args) for fire-and-forget posts, so
        # dispatch unpacks every entry alike and tells the kinds apart
        # by ``args is None``; seq is unique, so heap comparisons never
        # look past it.
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
        """Number of queued, non-cancelled events.  O(1): queue length
        minus a maintained count of lazily-cancelled entries — popping
        a live event costs no counter update at all."""
        return len(self._queue) - self._dead

    @property
    def peak_queue_len(self) -> int:
        """High-water mark of the event queue (including entries that
        were later cancelled) — the perf ledger reports this."""
        return self._peak_queue_len

    @staticmethod
    def _closed(*_args, **_kwargs) -> None:
        raise SimulationError("the simulator is closed")

    def close(self) -> None:
        """Teardown (DESIGN.md §19): drop the event queue and dispose the
        attached monitors.  Counters stay readable; scheduling or running
        afterwards raises :class:`SimulationError`.  Idempotent."""
        if self._running:
            raise SimulationError("close() from inside a running event")
        for entry in self._queue:
            if entry[3] is None:  # an armed Timer is a cycle through its own entry
                entry[2].callback = None
        self._queue, self._dead = [], 0
        if self.invariants is not None:
            self.invariants.dispose()
            self.invariants = None
        # Shadowing the methods keeps a "closed?" branch off the hot path.
        self.post = self.post_at = self.schedule_at = self.run = self._closed

    def _note_cancelled(self) -> None:
        """A queued event was cancelled: bump the dead count and
        compact the heap when cancelled entries dominate it."""
        dead = self._dead + 1
        queue = self._queue
        n = len(queue)
        if n >= _COMPACT_MIN and dead * 2 > n:
            # In-place so `run`'s local binding of the list stays valid.
            # Entries with args are fire-and-forget posts: never cancelled.
            queue[:] = [
                entry
                for entry in queue
                if entry[3] is not None or not entry[2].cancelled
            ]
            heapq.heapify(queue)
            self._dead = 0
        else:
            self._dead = dead

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        event = _Event(callback, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event, None))
        return EventHandle(self, event, time)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle` is
        built and no :class:`_Event` is allocated — the heap entry is a
        plain ``(time, seq, callback, args)`` tuple.  For hot paths
        that never cancel (link serialization, CPU-delay completions)
        this skips two allocations per event."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, callback, args))

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`post`)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def _requeue(self, time: float, seq: int, callback: Callable[[], None]) -> EventHandle:
        """Push an entry whose ``seq`` was allocated earlier (Timer
        re-arm support — see :meth:`Timer.start`)."""
        event = _Event(callback, ())
        heapq.heappush(self._queue, (time, seq, event, None))
        return EventHandle(self, event, time)

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
        differ slightly from an engine that cancels eagerly.
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
        try:
            while queue:
                # Heap length only shrinks at pops, so sampling here —
                # rather than on every push — still observes the true
                # high-water mark.
                qlen = len(queue)
                if qlen > peak:
                    peak = qlen
                entry = heappop(queue)
                time, _, callback, args = entry
                if args is None:  # cancellable: `callback` is the _Event
                    if callback.cancelled:
                        self._dead -= 1
                        continue
                    callback.queued = False
                    args = callback.args
                    callback = callback.callback
                if time > until_t or done >= limit:
                    # Not due in this run: back it goes, under the key
                    # it was popped with, so the order is untouched.
                    if entry[3] is None:
                        entry[2].queued = True
                    heapq.heappush(queue, entry)
                    break
                self._now = time
                callback(*args)
                done += 1
                self._events_processed = done
        finally:
            self._running = False
            self._peak_queue_len = peak
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
    timers, delayed ACKs, failure detectors) does constantly.

    Restarting to a *strictly later* deadline re-arms in place: the
    queued entry is left untouched and only the logical deadline
    (plus a freshly drawn tie-break ``seq``) is recorded.  When the
    stale entry pops, the timer silently re-queues itself for the real
    deadline under that saved ``seq``.  Because every ``start`` draws a
    sequence number exactly like the old cancel+reschedule dance did,
    tie-break order — and therefore the whole event schedule — is
    byte-identical to the eager implementation.  Restarting to an
    *equal* (or earlier) deadline falls back to cancel+reschedule: an
    in-place re-arm would fire under the old entry's seq, ordering the
    timer ahead of events scheduled between the two ``start`` calls.
    """

    __slots__ = ("_sim", "_callback", "_handle", "expires_at", "_seq")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        #: Absolute virtual time the timer fires at, None while it is
        #: not running.  A plain slot: per-segment protocol code tests
        #: ``expires_at is None`` without a property frame.
        self.expires_at: Optional[float] = None
        self._seq = 0

    @property
    def running(self) -> bool:
        return self.expires_at is not None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        sim = self._sim
        deadline = sim._now + delay
        handle = self._handle
        if (
            handle is not None
            and not handle._event.cancelled
            and deadline > handle._time
            and delay >= 0
        ):
            # Re-arm in place: keep the queued entry, remember the real
            # deadline, and consume a seq so tie-breaks match a full
            # cancel+reschedule.
            seq = sim._seq
            sim._seq = seq + 1
            self._seq = seq
            self.expires_at = deadline
        else:
            self.stop()
            self._handle = sim.schedule(delay, self._entry_fired)
            self.expires_at = deadline

    def stop(self) -> None:
        self.expires_at = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _entry_fired(self) -> None:
        deadline = self.expires_at
        if deadline is None:  # stopped after the entry was queued
            self._handle = None
            return
        if deadline > self._sim._now:
            # The entry was stale (timer pushed out since it was queued):
            # move to the real deadline under the seq drawn at re-arm.
            self._handle = self._sim._requeue(deadline, self._seq, self._entry_fired)
            return
        self._handle = None
        self.expires_at = None
        self._callback()
