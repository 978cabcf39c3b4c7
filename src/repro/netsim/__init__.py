"""Discrete-event network simulator substrate.

This package replaces the paper's FreeBSD/Ethernet testbed: a
deterministic event engine, IPv4-style addressing, point-to-point links
with bandwidth/latency/loss, hosts with CPU cost models, routers,
IP-in-IP tunnelling, and fragmentation.
"""

from .addressing import AddressError, IPAddress, Network, as_address
from .fragmentation import FragmentationError, Reassembler, fragment_packet
from .host import (
    Host,
    HostProfile,
    Kernel,
    I486,
    MODERN,
    PENTIUM_120,
    ZERO_COST,
)
from .link import Channel, Link
from .nic import NIC
from .packet import (
    IP_HEADER_SIZE,
    TCP_HEADER_SIZE,
    UDP_HEADER_SIZE,
    FragmentData,
    IPPacket,
    Payload,
    Protocol,
    RawData,
    TCPFlags,
    TCPSegment,
    UDPDatagram,
)
from .router import Router
from .simulator import SimulationError, Simulator, Timer
from .topology import Topology, TopologyError
from .trace import Tracer, TraceRecord, trace
from .tunnel import (
    ENCAPSULATION_OVERHEAD,
    EncapsulatedPacket,
    TunnelError,
    decapsulate,
    encapsulate,
)

__all__ = [
    "AddressError",
    "IPAddress",
    "Network",
    "as_address",
    "FragmentationError",
    "Reassembler",
    "fragment_packet",
    "Host",
    "HostProfile",
    "Kernel",
    "I486",
    "MODERN",
    "PENTIUM_120",
    "ZERO_COST",
    "Channel",
    "Link",
    "NIC",
    "IP_HEADER_SIZE",
    "TCP_HEADER_SIZE",
    "UDP_HEADER_SIZE",
    "FragmentData",
    "IPPacket",
    "Payload",
    "Protocol",
    "RawData",
    "TCPFlags",
    "TCPSegment",
    "UDPDatagram",
    "Router",
    "SimulationError",
    "Simulator",
    "Timer",
    "Topology",
    "TopologyError",
    "Tracer",
    "TraceRecord",
    "trace",
    "ENCAPSULATION_OVERHEAD",
    "EncapsulatedPacket",
    "TunnelError",
    "decapsulate",
    "encapsulate",
]
