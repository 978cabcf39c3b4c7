"""Packet model for the simulated internetwork.

Packets are Python objects, not byte strings, but every payload class
accounts for its *wire size* so that link serialization delays, MTU
checks, and fragmentation behave like the real thing.  Application data
is carried as actual ``bytes`` so end-to-end integrity can be asserted
in tests.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .addressing import IPAddress

IP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8
TCP_HEADER_SIZE = 20

_ip_id_counter = itertools.count(1)


class Protocol(enum.IntEnum):
    """IP protocol numbers used by the simulation."""

    ICMP = 1
    IPIP = 4  # IP-in-IP encapsulation (RFC 2003), used for tunnelling
    TCP = 6
    UDP = 17


class Payload:
    """Base class for everything that can ride inside an IP packet."""

    # Empty so the slotted payload dataclasses below stay dict-free.
    __slots__ = ()

    @property
    def wire_size(self) -> int:
        raise NotImplementedError


@dataclass(slots=True)
class RawData(Payload):
    """Opaque application data (used directly in tests)."""

    data: bytes

    @property
    def wire_size(self) -> int:
        return len(self.data)


@dataclass(slots=True)
class UDPDatagram(Payload):
    """A UDP datagram.  ``data`` may be bytes or any structured message
    object that exposes ``wire_size`` (management-protocol messages do)."""

    src_port: int
    dst_port: int
    data: object
    _wire_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def data_size(self) -> int:
        if isinstance(self.data, (bytes, bytearray)):
            return len(self.data)
        size = getattr(self.data, "wire_size", None)
        if size is None:
            raise TypeError(
                f"UDP payload {type(self.data).__name__} has no wire_size"
            )
        return size

    @property
    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            size = self._wire_size = UDP_HEADER_SIZE + self.data_size
        return size


class TCPFlags(enum.IntFlag):
    NONE = 0
    FIN = 1
    SYN = 2
    RST = 4
    PSH = 8
    ACK = 16


# Plain-int mirrors of the flag values.  Protocol hot paths build and
# test flags with these so the per-segment bit twiddling stays in C
# (IntFlag.__and__ constructs a new enum member per operation);
# ``TCPFlags`` remains the public vocabulary and any mix of the two
# compares equal.
FLAG_FIN = 1
FLAG_SYN = 2
FLAG_RST = 4
FLAG_PSH = 8
FLAG_ACK = 16


@dataclass(slots=True)
class TCPSegment(Payload):
    """A TCP segment with the fields the reproduction needs.

    ``seq``/``ack`` are 32-bit sequence numbers (mod 2**32); ``window``
    is the advertised receive window in bytes.  ``sack_blocks`` carries
    up to three RFC 2018 SACK blocks as (left, right) wire sequence
    pairs; ``sack_permitted`` is the SYN-time option.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: TCPFlags
    window: int
    data: bytes = b""
    sack_blocks: tuple = ()
    sack_permitted: bool = False
    #: Service view/epoch stamp (HydraNet-FT fencing, DESIGN.md §9).
    #: ``None`` for ordinary TCP.  Modelled as riding in an otherwise
    #: unused header field (the urgent pointer of non-URG segments), so
    #: it adds no wire bytes — keeping the Figure 4 calibration intact.
    epoch: Optional[int] = None
    _wire_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def wire_size(self) -> int:
        # Memoized: segments are immutable once emitted and this is on
        # the per-packet CPU/serialization path.
        size = self._wire_size
        if size is not None:
            return size
        options = 0
        if self.sack_blocks:
            options += 4 + 8 * len(self.sack_blocks)  # kind/len + pairs
        if self.sack_permitted:
            options += 4
        size = TCP_HEADER_SIZE + options + len(self.data)
        self._wire_size = size
        return size

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def seq_span(self) -> int:
        """Sequence-number space consumed: data plus SYN/FIN flags."""
        return len(self.data) + int(self.syn) + int(self.fin)

    def describe(self) -> str:
        names = [f.name for f in TCPFlags if f and self.flags & f]
        return (
            f"TCP {self.src_port}->{self.dst_port} "
            f"[{'|'.join(names) or '-'}] seq={self.seq} ack={self.ack} "
            f"win={self.window} len={len(self.data)}"
        )


@dataclass(slots=True, init=False)
class IPPacket:
    """A simulated IP packet.

    Fragmentation metadata mirrors IPv4: a fragment carries the byte
    ``frag_offset`` into the original payload and ``more_fragments``.
    Whole (unfragmented) packets have ``frag_offset == 0`` and
    ``more_fragments == False``.
    """

    src: IPAddress
    dst: IPAddress
    protocol: Protocol
    payload: Payload
    ttl: int
    ident: int
    frag_offset: int
    more_fragments: bool
    dont_fragment: bool
    # Total payload size of the original packet; only meaningful on
    # fragments (lets the reassembler know when it is done).
    original_payload_size: Optional[int]
    wire_size: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        src: IPAddress,
        dst: IPAddress,
        protocol: Protocol,
        payload: Payload,
        ttl: int = 64,
        ident: Optional[int] = None,
        frag_offset: int = 0,
        more_fragments: bool = False,
        dont_fragment: bool = False,
        original_payload_size: Optional[int] = None,
    ):
        # By hand: the generated __init__ would pay a default_factory
        # call and a __post_init__ frame per packet.  dataclasses.replace
        # still works (it passes every init field, ``ident`` included).
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.ident = next(_ip_id_counter) if ident is None else ident
        self.frag_offset = frag_offset
        self.more_fragments = more_fragments
        self.dont_fragment = dont_fragment
        self.original_payload_size = original_payload_size
        # Eager: every packet's wire size is read at least once (CPU
        # cost, MTU check, serialization delay) and the payload is never
        # swapped or resized afterwards (dataclasses.replace and the
        # fragmenter both build fresh instances).
        self.wire_size = IP_HEADER_SIZE + payload.wire_size

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.frag_offset > 0

    def describe(self) -> str:
        inner = (
            self.payload.describe()
            if hasattr(self.payload, "describe")
            else type(self.payload).__name__
        )
        frag = ""
        if self.is_fragment:
            frag = f" frag(off={self.frag_offset},mf={self.more_fragments})"
        return f"IP {self.src}->{self.dst} {self.protocol.name}{frag} | {inner}"


@dataclass(slots=True)
class FragmentData(Payload):
    """Payload of an IP fragment: a byte-range view of the original
    packet's payload.  The original payload object rides along on the
    *first* fragment only, so reassembly can return it unchanged."""

    length: int
    original: Optional[Payload] = None

    @property
    def wire_size(self) -> int:
        return self.length
