"""Measurement utilities: a transfer timer and percentiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not samples:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass
class ThroughputMeter:
    """Times a transfer over virtual time: from ``start`` (or the first
    ``record``) to ``finish`` (or the last ``record``)."""

    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    last_record_at: Optional[float] = None

    def start(self, now: float) -> None:
        self.started_at = now

    def record(self, now: float, nbytes: int) -> None:
        if self.started_at is None:
            self.started_at = now
        self.last_record_at = now

    def finish(self, now: float) -> None:
        self.finished_at = now

    @property
    def duration(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at
        if end is None:
            end = self.last_record_at if self.last_record_at is not None else self.started_at
        return end - self.started_at
