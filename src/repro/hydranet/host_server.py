"""Host servers: hosts equipped to run replicas of remote services.

A host server (paper §3) detects tunnelled (IP-in-IP) packets, unwraps
them, and delivers the inner packet to the local virtual-host service.
Its kernel runs the modified (HydraNet) system software, which costs a
little extra CPU per packet — the "no redirection" series in Figure 4
measures exactly that overhead.
"""

from __future__ import annotations

from repro.netsim.addressing import as_address
from repro.netsim.host import Host, HostProfile, MODERN
from repro.netsim.packet import IPPacket, Protocol
from repro.netsim.simulator import Simulator
from repro.netsim.trace import trace
from repro.netsim.tunnel import TunnelError, decapsulate
from repro.sockets.api import Node

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
        software_overhead: float = HOST_SERVER_SOFTWARE_OVERHEAD,
    ):
        super().__init__(sim, name, profile)
        self.kernel.software_overhead = software_overhead
        self.node = self._node = Node(self)  # `_node`: what node_for finds
        self.kernel.register_protocol(Protocol.IPIP, self._tunnel_endpoint)
        self.tunneled_packets_received = 0

    def dispose(self) -> None:
        super().dispose()
        self.node = None

    def v_host(self, ip) -> None:
        """The ``v_host(u_long ip_address)`` system call (paper §3): the
        server process runs inside a virtual host identified by its
        origin host's address, so the kernel accepts packets for it."""
        self.kernel.virtual_addresses.add(as_address(ip))

    def _tunnel_endpoint(self, packet: IPPacket) -> None:
        """Unwrap IP-in-IP packets and deliver the inner packet to the
        virtual host it is addressed to."""
        try:
            inner = decapsulate(packet)
        except TunnelError:
            trace(self.sim, self.name, "bad-tunnel", packet)
            return
        self.tunneled_packets_received += 1
        kernel = self.kernel
        # The set probes of owns_address, as in Kernel._route_and_transmit.
        dst = inner.dst
        if dst in kernel._nic_addrs or dst in kernel.virtual_addresses:
            kernel._deliver_local(inner)
        else:
            # Tunnelled to us but no such virtual host (e.g. service was
            # just removed): drop, as the kernel would.
            trace(self.sim, self.name, "no-vhost", inner)
