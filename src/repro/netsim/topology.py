"""Topology builder: declarative wiring of hosts, routers, and links.

Handles the boilerplate every experiment needs — subnet allocation for
point-to-point links, interface creation, and routing-table computation
(shortest path over the link graph).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .addressing import AddressError, IPAddress, Network
from .host import Host, HostProfile, MODERN
from .link import Link
from .nic import NIC
from .router import Router
from .simulator import Disposable, Simulator

#: Every point-to-point /30 the topology numbers is carved from here.
SUPERNET = Network("10.0.0.0/8")


class TopologyError(RuntimeError):
    pass


class Topology(Disposable):
    """A collection of hosts joined by point-to-point links.

    Typical use::

        topo = Topology(sim)
        client = topo.add_host("client")
        r = topo.add_router("r1")
        server = topo.add_host("server")
        topo.connect(client, r, bandwidth_bps=10e6, latency=1e-3)
        topo.connect(r, server, bandwidth_bps=10e6, latency=1e-3)
        topo.build_routes()
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.hosts: dict[str, Host] = {}
        self.links: list[Link] = []
        self._adjacency: dict[str, list[tuple[str, NIC]]] = {}
        self._subnet_counter = 0
        # Networks that exist "outside" the topology, routed toward a
        # specific host (e.g. an origin host's address space that a
        # redirector will intercept).
        self._external: list[tuple[Network, str]] = []

    # -- construction ---------------------------------------------------

    def add_host(self, name: str, profile: HostProfile = MODERN) -> Host:
        return self._register(Host(self.sim, name, profile))

    def add_router(self, name: str, profile: HostProfile = MODERN) -> Router:
        return self._register(Router(self.sim, name, profile))

    def add(self, host: Host) -> Host:
        """Register an externally constructed host (e.g. a Redirector)."""
        return self._register(host)

    def _register(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise TopologyError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        self._adjacency[host.name] = []
        return host

    def _next_subnet(self) -> Network:
        base = int(SUPERNET.base)
        while True:
            candidate = Network(
                str(IPAddress(base + (self._subnet_counter << 2))), 30
            )
            self._subnet_counter += 1
            if int(candidate.broadcast) > int(SUPERNET.broadcast):
                raise AddressError("supernet exhausted")
            return candidate

    def connect(
        self,
        a: Host,
        b: Host,
        bandwidth_bps: float = 10_000_000.0,
        latency: float = 0.001,
        loss_rate: float = 0.0,
        queue_capacity: int = 64,
        mtu: int = 1500,
        subnet: Optional[str] = None,
    ) -> Link:
        """Join two hosts with a duplex link on a fresh /30 subnet."""
        for host in (a, b):
            if host.name not in self.hosts:
                raise TopologyError(f"{host.name} is not part of this topology")
        net = Network(subnet) if subnet else self._next_subnet()
        host_ips = net.hosts()
        ip_a = next(host_ips)
        ip_b = next(host_ips)
        nic_a = a.add_interface(ip_a, net, mtu=mtu)
        nic_b = b.add_interface(ip_b, net, mtu=mtu)
        link = Link(
            self.sim,
            bandwidth_bps=bandwidth_bps,
            latency=latency,
            loss_rate=loss_rate,
            queue_capacity=queue_capacity,
            name=f"{a.name}<->{b.name}",
        )
        link.attach(nic_a, nic_b)
        self.links.append(link)
        self._adjacency[a.name].append((b.name, nic_a))
        self._adjacency[b.name].append((a.name, nic_b))
        return link

    def add_external_network(self, network: Network | str, via: Host) -> None:
        """Declare an address block outside the topology, reachable by
        routing toward ``via`` (where a redirector typically intercepts
        packets for it)."""
        self._external.append((Network(network), via.name))

    # -- routing ---------------------------------------------------------

    def _first_hops(self, origin: str) -> dict[str, NIC]:
        """BFS: for every reachable host, the NIC of the first hop."""
        first_hop: dict[str, NIC] = {}
        visited = {origin}
        queue: deque[str] = deque()
        for neighbor, nic in self._adjacency[origin]:
            if neighbor not in visited:
                visited.add(neighbor)
                first_hop[neighbor] = nic
                queue.append(neighbor)
        while queue:
            current = queue.popleft()
            for neighbor, _nic in self._adjacency[current]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    first_hop[neighbor] = first_hop[current]
                    queue.append(neighbor)
        return first_hop

    def build_routes(self) -> None:
        """Install shortest-path routes at every host for every link
        subnet and every external network."""
        for origin, host in self.hosts.items():
            # Single-homed end hosts behave like real ones: everything
            # non-local goes out the only interface (default route).
            # Per-subnet routes would all name that same interface, so
            # they are skipped entirely — at datacenter scale this cuts
            # route installation from O(hosts × subnets) to O(hosts).
            if not host.kernel.ip_forwarding and len(host.interfaces) == 1:
                host.kernel.add_default_route(host.interfaces[0])
                continue
            first_hop = self._first_hops(origin)
            seen: set[Network] = {nic.network for nic in host.interfaces}
            for other_name, other in self.hosts.items():
                if other_name == origin or other_name not in first_hop:
                    continue
                for nic in other.interfaces:
                    if nic.network in seen:
                        continue
                    seen.add(nic.network)
                    host.kernel.add_route(nic.network, first_hop[other_name])
            for network, via_name in self._external:
                if network in seen:
                    continue
                if via_name == origin:
                    continue
                if via_name in first_hop:
                    host.kernel.add_route(network, first_hop[via_name])

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): simulator, hosts, fault taps."""
        self.sim.close()
        for host in self.hosts.values():
            host.dispose()
        for link in self.links:
            link.a_to_b.tap = link.b_to_a.tap = None

    def find_link(self, a: Host | str, b: Host | str) -> Link:
        """Locate the link joining two hosts (for fault injection)."""
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        wanted = {f"{name_a}<->{name_b}", f"{name_b}<->{name_a}"}
        for link in self.links:
            if link.name in wanted:
                return link
        raise TopologyError(f"no link between {name_a} and {name_b}")
