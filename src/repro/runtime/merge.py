"""Deterministic reduction of pooled results (DESIGN.md §12).

The pool completes tasks in whatever order the operating system
schedules them; everything user-visible must not care.  The contract:
every batch has a *canonical key order* (experiment declaration order,
ascending scenario seed, …), workers return plain data, and the merge
layer reassembles that data — report text, fuzz fingerprints — strictly
in canonical order.  A parallel run is therefore
byte-identical to a serial run of the same batch.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .pool import TaskOutcome

__all__ = ["DeterministicMerger"]


class DeterministicMerger:
    """Re-order a stream of out-of-order outcomes into canonical order.

    ``offer`` buffers each arriving outcome and emits the longest
    possible prefix of the canonical order to ``emit`` — so a front end
    can stream per-task output lines live while still printing them in
    the exact order a serial run would.
    """

    def __init__(self, keys: Sequence[str], emit: Callable[[TaskOutcome], None]):
        if len(set(keys)) != len(keys):
            raise ValueError("canonical key order contains duplicates")
        self._order = list(keys)
        self._expected = set(keys)
        self._emit = emit
        self._buffer: dict[str, TaskOutcome] = {}
        self._next = 0

    def offer(self, outcome: TaskOutcome) -> None:
        if outcome.key not in self._expected:
            raise KeyError(f"unexpected task key {outcome.key!r}")
        if outcome.key in self._buffer:
            raise ValueError(f"duplicate outcome for key {outcome.key!r}")
        self._buffer[outcome.key] = outcome
        while self._next < len(self._order):
            key = self._order[self._next]
            if key not in self._buffer:
                break
            self._next += 1
            self._emit(self._buffer[key])
