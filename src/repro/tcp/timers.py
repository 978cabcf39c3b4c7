"""Retransmission-timeout estimation: Jacobson/Karels with Karn's rule.

The RTO estimator matters directly to the reproduction: the paper
attributes most of the primary+backup throughput loss to *timeouts* at
the client ("it is the lengthy timeout, not the re-transmission, which
affects the performance"), so timeout behaviour must be faithful.
"""

from __future__ import annotations

from typing import Optional

from .options import TcpOptions


class RtoEstimator:
    """SRTT/RTTVAR smoothing per RFC 6298 (alpha=1/8, beta=1/4)."""

    __slots__ = ("_options", "srtt", "rttvar", "_base", "backoff_count", "rto", "samples")

    def __init__(self, options: TcpOptions):
        self._options = options
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._base = options.initial_rto  # before backoff and clamping
        self.backoff_count = 0
        self.samples = 0
        self._refresh()

    def _refresh(self) -> None:
        """Store the current RTO — exponential backoff applied, clamped —
        so the timer-start sites read a slot, not a formula."""
        options = self._options
        rto = self._base * (2**self.backoff_count)
        self.rto = min(max(rto, options.min_rto), options.max_rto)

    def on_measurement(self, rtt: float) -> None:
        """Feed one RTT sample (never from a retransmitted segment —
        Karn's rule is the caller's responsibility)."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample: {rtt}")
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            err = rtt - self.srtt
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(err)
            self.srtt = self.srtt + err / 8
        self._base = self.srtt + max(4 * self.rttvar, 0.010)
        self.backoff_count = 0
        self._refresh()

    def on_timeout(self) -> None:
        """Exponential backoff after a retransmission timeout."""
        self.backoff_count += 1
        self._refresh()

    def reset_backoff(self) -> None:
        if self.backoff_count:
            self.backoff_count = 0
            self._refresh()
