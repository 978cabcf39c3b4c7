"""Host servers: hosts equipped to run replicas of remote services.

A host server (paper §3) detects tunnelled (IP-in-IP) packets, unwraps
them, and delivers the inner packet to the local virtual-host service.
Its kernel runs the modified (HydraNet) system software, which costs a
little extra CPU per packet — the "no redirection" series in Figure 4
measures exactly that overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.host import Host, HostProfile, MODERN
from repro.netsim.packet import IPPacket, Protocol
from repro.netsim.simulator import Simulator
from repro.netsim.trace import trace
from repro.netsim.tunnel import TunnelError, decapsulate
from repro.sockets.api import Node
from repro.tcp.options import TcpOptions

from .virtual_host import VirtualHost, VirtualHostTable

#: Extra CPU per packet charged by the HydraNet-modified kernel on host
#: servers (tunnel detection, virtual-host lookup).
HOST_SERVER_SOFTWARE_OVERHEAD = 25e-6


class HostServer(Host):
    """A server-of-servers."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: HostProfile = MODERN,
        tcp_options: Optional[TcpOptions] = None,
        software_overhead: float = HOST_SERVER_SOFTWARE_OVERHEAD,
    ):
        super().__init__(sim, name, profile)
        self.kernel.software_overhead = software_overhead
        self.virtual_hosts = VirtualHostTable(self)
        self.node = self._node = Node(self, tcp_options)  # `_node`: what node_for finds
        self.kernel.register_protocol(Protocol.IPIP, self._tunnel_endpoint)
        self.tunneled_packets_received = 0

    def dispose(self) -> None:
        super().dispose()
        self.node = self.virtual_hosts = None

    def v_host(self, ip) -> VirtualHost:
        """The ``v_host(u_long ip_address)`` system call (paper §3)."""
        return self.virtual_hosts.create(ip)

    def _tunnel_endpoint(self, packet: IPPacket) -> None:
        """Unwrap IP-in-IP packets and deliver the inner packet to the
        virtual host it is addressed to."""
        try:
            inner = decapsulate(packet)
        except TunnelError:
            trace(self.sim, self.name, "bad-tunnel", packet)
            return
        self.tunneled_packets_received += 1
        if self.kernel.owns_address(inner.dst):
            self.kernel._deliver_local(inner)
        else:
            # Tunnelled to us but no such virtual host (e.g. service was
            # just removed): drop, as the kernel would.
            trace(self.sim, self.name, "no-vhost", inner)
