"""Recovery-subsystem metrics: MTTR, catch-up cost, degree timeline.

The recovery manager records one :class:`RecoveryIncident` per
completed live join and keeps a :class:`DegreeTimeline` of the
replication degree over time; ``availability`` is the fraction of time
the service ran at (or above) its target degree — the headline number
for the recovery experiment.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RecoveryIncident:
    """One degradation → restoration cycle handled by a live join."""

    #: When the degradation was first observed (failure report or
    #: membership drop, whichever came first).
    degraded_at: float
    #: When the catch-up (join) for the replacement started.
    catchup_started_at: float
    #: When the chain splice completed (full degree restored).
    restored_at: float
    connections_transferred: int
    transfer_bytes: int

    @property
    def mttr(self) -> float:
        """Mean-time-to-repair contribution: degradation to splice."""
        return self.restored_at - self.degraded_at

    @property
    def catchup_duration(self) -> float:
        return self.restored_at - self.catchup_started_at


class DegreeTimeline:
    """Piecewise-constant record of the replication degree."""

    def __init__(self):
        self._points: list[tuple[float, int]] = []

    def record(self, t: float, degree: int) -> None:
        if self._points and self._points[-1][1] == degree:
            return
        if self._points and self._points[-1][0] == t:
            self._points[-1] = (t, degree)
            return
        self._points.append((t, degree))

    @property
    def points(self) -> list[tuple[float, int]]:
        return list(self._points)

    def degree_at(self, t: float) -> int:
        degree = 0
        for point_t, point_degree in self._points:
            if point_t > t:
                break
            degree = point_degree
        return degree

    def availability(self, target: int, until: float) -> float:
        """Fraction of [0, until] spent at degree >= ``target``."""
        if until <= 0.0:
            return 0.0
        good = 0.0
        t = 0.0
        degree = self.degree_at(0.0)
        for point_t, point_degree in self._points:
            if point_t <= 0.0:
                continue
            if point_t >= until:
                break
            if degree >= target:
                good += point_t - t
            t = point_t
            degree = point_degree
        if degree >= target:
            good += until - t
        return good / until


def summarize_incidents(incidents: list[RecoveryIncident]) -> dict:
    """Aggregate view for tables: counts, mean MTTR, transfer volume."""
    if not incidents:
        return {
            "incidents": 0,
            "mean_mttr": 0.0,
            "max_mttr": 0.0,
            "mean_catchup": 0.0,
            "transfer_bytes": 0,
            "connections_transferred": 0,
        }
    return {
        "incidents": len(incidents),
        "mean_mttr": sum(i.mttr for i in incidents) / len(incidents),
        "max_mttr": max(i.mttr for i in incidents),
        "mean_catchup": sum(i.catchup_duration for i in incidents) / len(incidents),
        "transfer_bytes": sum(i.transfer_bytes for i in incidents),
        "connections_transferred": sum(i.connections_transferred for i in incidents),
    }
