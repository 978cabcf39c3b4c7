"""Selective acknowledgements (RFC 2018): the sender-side scoreboard
and receiver-side block generation helpers.

SACK is era-appropriate (1996) but optional — the reproduction's
Figure-4 configurations leave it off, matching the paper's stack; the
substrate supports it for the loss-recovery comparison tests.
"""

from __future__ import annotations

from typing import Optional


class SackScoreboard:
    """Sender-side record of peer-reported received ranges.

    All positions are stream offsets; ranges are kept sorted and
    disjoint.  Per RFC 2018 the information is advisory: it is cleared
    on RTO and everything below the cumulative ACK point is dropped.
    """

    __slots__ = ("_ranges",)

    def __init__(self):
        self._ranges: list[tuple[int, int]] = []

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return list(self._ranges)

    def record(self, start: int, end: int) -> None:
        """Merge one reported block [start, end)."""
        if end <= start:
            return
        merged: list[tuple[int, int]] = []
        placed = False
        for lo, hi in self._ranges:
            if hi < start or lo > end:
                merged.append((lo, hi))
            else:
                start = min(start, lo)
                end = max(end, hi)
        for i, (lo, hi) in enumerate(merged):
            if start < lo:
                merged.insert(i, (start, end))
                placed = True
                break
        if not placed:
            merged.append((start, end))
        merged.sort()
        self._ranges = merged

    def advance(self, cumulative: int) -> None:
        """Drop everything below the cumulative ACK point."""
        self._ranges = [
            (max(lo, cumulative), hi) for lo, hi in self._ranges if hi > cumulative
        ]

    def clear(self) -> None:
        """RTO: SACK information is advisory and must be discarded."""
        self._ranges = []

    def is_sacked(self, offset: int) -> bool:
        return any(lo <= offset < hi for lo, hi in self._ranges)

    def first_hole(self, start: int, limit: int) -> Optional[tuple[int, int]]:
        """The first unsacked gap at or after ``start``, clipped to
        ``limit``; None when everything in [start, limit) is sacked."""
        position = start
        for lo, hi in self._ranges:
            if hi <= position:
                continue
            if lo > position:
                return (position, min(lo, limit)) if position < limit else None
            position = hi
            if position >= limit:
                return None
        return (position, limit) if position < limit else None
