"""A full TCP implementation over the simulated network.

Handshake, sliding windows, cumulative/duplicate ACKs, RTO with Karn's
rule, Reno congestion control, delayed ACKs, Nagle, persist probes, and
graceful close — plus the hook points HydraNet-FT's ft-TCP needs
(deposit/transmit gates and an output filter).
"""

from .buffers import Reassembler, SendBuffer, SocketBuffer
from .congestion import CongestionControl
from .options import TcpOptions
from .seqnum import seq_add, seq_diff
from .stack import Listener, TcpStack, deterministic_iss
from .tcb import TcpConnection, TcpError, TcpState
from .timers import RtoEstimator

__all__ = [
    "Reassembler",
    "SendBuffer",
    "SocketBuffer",
    "CongestionControl",
    "TcpOptions",
    "seq_add",
    "seq_diff",
    "Listener",
    "TcpStack",
    "deterministic_iss",
    "TcpConnection",
    "TcpError",
    "TcpState",
    "RtoEstimator",
]
