"""The low-latency failure estimator (paper §4.3).

"If a server fails to receive a packet, the flow control loop is
broken, and the client re-transmits. ... Repeated re-transmissions are
detected at the servers.  After some number of re-transmissions have
been detected, any server can initiate a reconfiguration of the set of
replicas."

The detector counts client retransmissions observed by the ft-TCP
stack within a sliding window; crossing the configured threshold fires
a report (rate-limited by a cooldown).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.netsim.simulator import Simulator

from .replicated_port import DetectorParams


class RetransmissionDetector:
    """Per-replicated-port failure estimator."""

    def __init__(
        self,
        sim: Simulator,
        params: DetectorParams,
        on_failure: Callable[[], None],
    ):
        self.sim = sim
        self.params = params
        self.on_failure = on_failure
        self._events: deque[float] = deque()
        self._last_report: Optional[float] = None
        self.observations = 0
        self.reports = 0

    def observe_retransmission(self) -> None:
        """Feed one observed client retransmission."""
        now = self.sim.now
        self.observations += 1
        self._events.append(now)
        cutoff = now - self.params.window
        while self._events and self._events[0] < cutoff:
            self._events.popleft()
        if len(self._events) < self.params.threshold:
            return
        if (
            self._last_report is not None
            and now - self._last_report < self.params.cooldown
        ):
            return
        self._last_report = now
        self._events.clear()
        self.reports += 1
        self.on_failure()

    @property
    def last_report_at(self) -> Optional[float]:
        """Sim time of the most recent report (None before the first).
        Experiments use this to place detection on the fail-over
        timeline; the promotion handshake is paced by the same cooldown
        that rate-limits reports."""
        return self._last_report
