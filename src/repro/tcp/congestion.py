"""Congestion control: TCP Reno (slow start, congestion avoidance,
fast retransmit / fast recovery).

The paper leans on TCP's own congestion behaviour twice: the failure
detector threshold "should be high enough to not interfere with TCP's
own congestion control ... which initiates a slow-start recovery after
detecting a triple acknowledgment", and the throughput measurements run
over ordinary Reno dynamics.
"""

from __future__ import annotations

from .options import TcpOptions


class CongestionControl:
    """Byte-counting Reno."""

    __slots__ = (
        "options", "mss", "cwnd", "ssthresh", "in_fast_recovery",
        "_recovery_point", "fast_retransmits", "timeouts",
    )

    def __init__(self, options: TcpOptions, mss: int):
        self.options = options
        self.mss = mss
        self.cwnd = options.initial_cwnd_segments * mss
        self.ssthresh = 64 * 1024
        self.in_fast_recovery = False
        self._recovery_point = 0  # stream offset that ends recovery
        self.fast_retransmits = 0
        self.timeouts = 0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_ack(self, newly_acked: int, snd_nxt_offset: int) -> None:
        """A cumulative ACK covered ``newly_acked`` fresh bytes."""
        if newly_acked <= 0:
            return
        if self.in_fast_recovery:
            # NewReno-lite: exit recovery once the recovery point is
            # acked; partial ACKs deflate instead of growing.
            return
        if self.in_slow_start:
            self.cwnd += min(newly_acked, self.mss)
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def ack_covers_recovery(self, acked_offset: int) -> bool:
        return acked_offset >= self._recovery_point

    def on_full_ack_in_recovery(self) -> None:
        self.in_fast_recovery = False
        self.cwnd = self.ssthresh

    def on_dupacks(self, flight_size: int, snd_nxt_offset: int) -> bool:
        """Third duplicate ACK seen.  Returns True if the caller should
        fast-retransmit (i.e. we were not already in recovery)."""
        if self.in_fast_recovery:
            self.cwnd += self.mss  # window inflation per extra dupack
            return False
        self.fast_retransmits += 1
        self.ssthresh = max(2 * self.mss, flight_size // 2)
        self.cwnd = self.ssthresh + self.options.dupack_threshold * self.mss
        self.in_fast_recovery = True
        self._recovery_point = snd_nxt_offset
        return True

    def on_extra_dupack(self) -> None:
        if self.in_fast_recovery:
            self.cwnd += self.mss

    def on_timeout(self, flight_size: int) -> None:
        """Retransmission timeout: collapse to one segment."""
        self.timeouts += 1
        self.ssthresh = max(2 * self.mss, flight_size // 2)
        self.cwnd = self.mss
        self.in_fast_recovery = False

    def window(self, peer_window: int) -> int:
        """Effective send window: min(cwnd, peer's advertised window)."""
        return min(self.cwnd, peer_window)
