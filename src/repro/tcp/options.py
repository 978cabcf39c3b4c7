"""TCP tuning knobs.

One :class:`TcpOptions` instance configures a stack (and can be
overridden per connection).  The defaults model a late-90s BSD stack;
``segment_per_write=True`` reproduces the paper's measurement setup
("we turned off buffering of small segments at the TCP sender").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class TcpOptions:
    #: Maximum segment size; None derives it from the egress MTU.
    mss: Optional[int] = None
    #: Nagle's algorithm (RFC 896).  ttcp-style measurements disable it.
    nagle: bool = True
    #: When True, application write boundaries become segment
    #: boundaries (no coalescing in the send buffer).  This is the
    #: paper's "no batching of small segments" measurement mode.
    segment_per_write: bool = False
    #: Delayed-ACK (RFC 1122): ack every second segment or after timeout.
    delayed_ack: bool = True
    delayed_ack_timeout: float = 0.2
    #: Socket buffer sizes, bytes.
    send_buffer_size: int = 65535
    recv_buffer_size: int = 65535
    #: Retransmission timeout bounds, seconds (4.4BSD-ish).
    initial_rto: float = 1.0
    min_rto: float = 1.0
    max_rto: float = 64.0
    #: Give up on a connection after this many consecutive RTOs.
    max_retries: int = 12
    max_syn_retries: int = 5
    #: Initial congestion window, in segments.
    initial_cwnd_segments: int = 2
    #: Duplicate ACKs that trigger fast retransmit.
    dupack_threshold: int = 3
    #: 2*MSL bounds TIME_WAIT; kept short to keep simulations snappy.
    msl: float = 5.0
    #: Zero-window persist probe interval bounds, seconds.
    persist_min: float = 0.5
    persist_max: float = 60.0
    #: When a deposit gate (ft-TCP) holds back in-order data: True
    #: stages it in the reassembly buffer until the gate opens (clean
    #: behaviour); False drops it like the paper's "conservative"
    #: kernel modification — the client retransmits after a timeout,
    #: which is the pathology §5 blames for the primary+backup
    #: throughput hit.
    stage_gated_data: bool = True
    #: False models the paper's conservatively modified receive path:
    #: the advertised window is simply ``buffer - held bytes`` (held
    #: includes gate-staged data), so the right edge can retreat while
    #: the deposit gate lags, and data beyond the current edge is
    #: silently dropped.  Those are tail drops, recovered by client
    #: RTOs — "it is the lengthy timeout, not the re-transmission,
    #: which affects the performance" (§5).  True is the RFC-compliant
    #: non-retreating edge.
    rfc_window_edge: bool = True

    def with_overrides(self, **kw) -> "TcpOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    def effective_mss(self, mtu: int) -> int:
        """MSS for a path with the given MTU (IP + TCP headers = 40)."""
        derived = mtu - 40
        if self.mss is not None:
            return min(self.mss, derived)
        return derived
