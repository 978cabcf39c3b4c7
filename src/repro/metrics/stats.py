"""Measurement utilities: throughput meters and summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Summary:
    """Summary statistics over a sample list."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, samples: list[float]) -> "Summary":
        if not samples:
            return cls(0, math.nan, math.nan, math.nan, math.nan)
        n = len(samples)
        mean = sum(samples) / n
        if n > 1:
            var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        else:
            var = 0.0
        return cls(n, mean, math.sqrt(var), min(samples), max(samples))


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
    """Tracks bytes transferred over virtual time."""

    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    total_bytes: int = 0
    _events: list[tuple[float, int]] = field(default_factory=list)

    def start(self, now: float) -> None:
        self.started_at = now

    def record(self, now: float, nbytes: int) -> None:
        if self.started_at is None:
            self.started_at = now
        self.total_bytes += nbytes
        self._events.append((now, nbytes))

    def finish(self, now: float) -> None:
        self.finished_at = now

    @property
    def duration(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at
        if end is None:
            end = self._events[-1][0] if self._events else self.started_at
        return end - self.started_at

    @property
    def throughput_bytes_per_sec(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.total_bytes / self.duration

    @property
    def throughput_kB_per_sec(self) -> float:
        """kBytes/s, the unit of the paper's Figure 4 (1 kB = 1000 B)."""
        return self.throughput_bytes_per_sec / 1000.0

    def interval_throughputs(self, interval: float) -> list[float]:
        """Bytes/s per fixed interval — useful to spot stalls (e.g.
        during fail-over)."""
        if not self._events or self.started_at is None:
            return []
        end = self.finished_at or self._events[-1][0]
        n_bins = max(1, math.ceil((end - self.started_at) / interval))
        bins = [0.0] * n_bins
        for t, b in self._events:
            idx = min(int((t - self.started_at) / interval), n_bins - 1)
            bins[idx] += b
        return [b / interval for b in bins]
