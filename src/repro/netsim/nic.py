"""Network interfaces."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .addressing import IPAddress, Network
from .link import Channel
from .packet import IPPacket
from .trace import trace

if TYPE_CHECKING:
    from .host import Host

DEFAULT_MTU = 1500


class NIC:
    """A network interface: an address on a network, an MTU, and an
    outgoing channel of a point-to-point link."""

    def __init__(
        self,
        host: "Host",
        ip: IPAddress,
        network: Network,
        mtu: int = DEFAULT_MTU,
        name: Optional[str] = None,
    ):
        self.host = host
        self.sim = host.sim  # cached: NIC tx/rx are per-packet hot paths
        self._kernel = host.kernel  # cached for the rx fast path
        self.ip = ip
        self.network = network
        self.mtu = mtu
        self.name = name or f"{host.name}:eth{len(host.interfaces)}"
        self._up = True
        self._out: Optional[Channel] = None
        self.packets_in = 0
        self.packets_out = 0

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        # Flipping an interface invalidates every kernel route-cache
        # answer that named it (or was chosen because it was down).
        if value != self._up:
            self._up = value
            self.host.kernel._route_cache.clear()

    def connect(self, channel: Channel) -> None:
        self._out = channel

    def send(self, packet: IPPacket) -> None:
        """Put a packet on the wire.  Caller is responsible for MTU
        compliance (the kernel fragments before calling this)."""
        if not self._up:
            trace(self.sim, self.name, "nic-down-drop", packet)
            return
        if self._out is None:
            trace(self.sim, self.name, "unconnected-drop", packet)
            return
        if packet.wire_size > self.mtu:
            raise ValueError(
                f"{self.name}: packet of {packet.wire_size}B exceeds MTU {self.mtu}"
            )
        self.packets_out += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(self.sim.now, self.name, "tx", packet)
        self._out.transmit(packet)

    def deliver(self, packet: IPPacket) -> None:
        """Called by the link when a packet arrives at this interface."""
        if not self._up:
            trace(self.sim, self.name, "nic-down-drop", packet)
            return
        self.packets_in += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(self.sim.now, self.name, "rx", packet)
        self._kernel.receive_from_nic(packet, self)
