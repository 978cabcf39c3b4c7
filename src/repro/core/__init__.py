"""HydraNet-FT core (paper §4): replicated ports, the acknowledgement
channel, ft-TCP gating, failure detection, and service orchestration."""

from .ack_channel import (
    ACK_CHANNEL_PORT,
    AckChannelEndpoint,
    AckChannelMessage,
    OrderedAckChannelEndpoint,
)
from .failure_detector import RetransmissionDetector
from .heartbeat import Heartbeat, HeartbeatDetector, HeartbeatSender, enable_heartbeats
from .ft_tcp import FtConnectionState, FtError, FtPort, FtStack
from .replicated_port import DetectorParams, PortMode
from .service import FtNode, ReplicaHandle, ReplicatedTcpService, ServerFactory

__all__ = [
    "ACK_CHANNEL_PORT",
    "AckChannelEndpoint",
    "AckChannelMessage",
    "OrderedAckChannelEndpoint",
    "RetransmissionDetector",
    "Heartbeat",
    "HeartbeatDetector",
    "HeartbeatSender",
    "enable_heartbeats",
    "FtConnectionState",
    "FtError",
    "FtPort",
    "FtStack",
    "DetectorParams",
    "PortMode",
    "FtNode",
    "ReplicaHandle",
    "ReplicatedTcpService",
    "ServerFactory",
]
