"""IP-in-IP tunnelling (RFC 2003 style).

Redirectors encapsulate redirected packets so they reach the host server
regardless of normal routing; the host server detects the tunnel
protocol and forwards the inner packet to its local (virtual-host)
processing.  The 20-byte inner header is real overhead and can push a
full-MTU packet into fragmentation — one of the effects the Figure 4
reproduction exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .addressing import IPAddress
from .packet import IP_HEADER_SIZE, IPPacket, Payload, Protocol


@dataclass(slots=True)
class EncapsulatedPacket(Payload):
    """Payload of an IP-in-IP packet: the complete inner packet."""

    inner: IPPacket

    @property
    def wire_size(self) -> int:
        return self.inner.wire_size


class TunnelError(ValueError):
    pass


def encapsulate(inner: IPPacket, src: IPAddress, dst: IPAddress) -> IPPacket:
    """Wrap ``inner`` in an outer IP-in-IP packet from ``src`` to ``dst``."""
    return IPPacket(
        src=src,
        dst=dst,
        protocol=Protocol.IPIP,
        payload=EncapsulatedPacket(inner),
        ttl=inner.ttl,
    )


def decapsulate(outer: IPPacket) -> IPPacket:
    """Unwrap an IP-in-IP packet, returning the inner packet."""
    if outer.protocol != Protocol.IPIP:
        raise TunnelError(f"not an IP-in-IP packet: {outer.protocol.name}")
    payload = outer.payload
    if not isinstance(payload, EncapsulatedPacket):
        raise TunnelError("IPIP packet without encapsulated payload")
    return payload.inner


ENCAPSULATION_OVERHEAD = IP_HEADER_SIZE
