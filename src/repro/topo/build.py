"""Compile a :class:`TopologySpec` onto the simulator (DESIGN.md §13).

Builds the physical network (hosts, links, routes), wires the
redirector mesh (daemons, peer/parent relations), deploys every
service placement through :class:`~repro.core.ReplicatedTcpService`,
and lets the management plane settle — registration, chain setup, and
the mesh-wide table-sync flood all happen during the settle window.

Host servers attach to their *rack* (the redirector one physical link
away): failure reports go there, while registration and promotion
traffic goes to each service's authority redirector — that split is
what makes hierarchical failure aggregation real.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.echo import echo_server_factory
from repro.core import FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Host, Simulator, Topology
from repro.netsim.host import I486, MODERN, PENTIUM_120, ZERO_COST, HostProfile
from repro.sockets import Node, node_for

from .spec import TopologySpec

PROFILES: dict[str, HostProfile] = {
    "modern": MODERN,
    "i486": I486,
    "pentium120": PENTIUM_120,
    "zero": ZERO_COST,
}


#: Simulated seconds a fresh deployment runs before client traffic.
SETTLE = 2.0


class TopoBuildError(RuntimeError):
    pass


@dataclass
class CompiledMesh:
    """A live deployment built from a spec."""

    spec: TopologySpec
    sim: Simulator
    topo: Topology
    redirectors: dict[str, Redirector]
    daemons: dict[str, RedirectorDaemon]
    host_servers: dict[str, HostServer]
    ft_nodes: dict[str, FtNode]
    clients: dict[str, Host]
    services: list[ReplicatedTcpService]
    #: ``(service_ip, port)`` per deployed service, placement order.
    service_points: list[tuple[str, int]]

    def client_node(self, name: str) -> Node:
        return node_for(self.clients[name])

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19); the topology closes the simulator."""
        for part in (self.topo, *self.daemons.values(), *self.ft_nodes.values()):
            part.dispose()

    def rack_of(self, server_name: str) -> str:
        """Name of the redirector a server hangs off."""
        return _rack_of(self.spec, self.redirectors, server_name)

    def mesh_counters(self) -> dict[str, dict[str, int]]:
        """Per-redirector mesh-protocol counters (deterministic; part
        of scenario fingerprints)."""
        out = {}
        for name in sorted(self.daemons):
            d = self.daemons[name]
            out[name] = {
                "table_entries": len(d.redirector.table),
                "syncs_forwarded": d.table_syncs_forwarded,
                "stale_syncs_dropped": d.stale_syncs_dropped,
                "summaries_sent": d.failure_summaries_sent,
                "summaries_received": d.failure_summaries_received,
            }
        return out


def _rack_of(spec: TopologySpec, redirectors, server_name: str) -> str:
    for neighbor in spec.neighbors(server_name):
        if neighbor in redirectors:
            return neighbor
    raise TopoBuildError(f"server {server_name!r} has no adjacent redirector")


def _profile(name: str) -> HostProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise TopoBuildError(
            f"unknown host profile {name!r}; have {sorted(PROFILES)}"
        ) from None


def compile_spec(spec: TopologySpec) -> CompiledMesh:
    """Build the spec into a running deployment of echo services.

    ``SETTLE`` simulated seconds are run after deployment so that
    registration, chain setup, and the mesh-wide sync flood complete;
    the returned mesh is ready for client traffic.
    """
    spec.check()
    sim = Simulator(seed=spec.seed)
    topo = Topology(sim)
    redirectors: dict[str, Redirector] = {}
    host_servers: dict[str, HostServer] = {}
    clients: dict[str, Host] = {}
    for h in spec.hosts:
        profile = _profile(h.profile)
        if h.role == "redirector":
            redirectors[h.name] = topo.add(Redirector(sim, h.name, profile))
        elif h.role == "server":
            host_servers[h.name] = topo.add(HostServer(sim, h.name, profile))
        else:
            clients[h.name] = topo.add_host(h.name, profile)
    for link in spec.links:
        topo.connect(
            topo.host(link.a),
            topo.host(link.b),
            bandwidth_bps=link.bandwidth_bps,
            latency=link.latency,
            loss_rate=link.loss_rate,
            queue_capacity=link.queue_capacity,
        )
    for network, via in spec.external:
        topo.add_external_network(network, topo.host(via))
    topo.build_routes()

    # -- mesh control plane -------------------------------------------
    daemons = {
        name: RedirectorDaemon(redirector) for name, redirector in redirectors.items()
    }
    for a, b in spec.peers:
        daemons[a].add_peer(redirectors[b].ip)
        daemons[b].add_peer(redirectors[a].ip)
    for child, parent in spec.parents:
        daemons[child].set_parent(redirectors[parent].ip)
        # Syncs flood both ways over a parent link.
        daemons[parent].add_peer(redirectors[child].ip)

    # -- host servers: one FtNode each, attached to its rack ----------
    ft_nodes = {}
    for name, hs in host_servers.items():
        ft_nodes[name] = FtNode(hs, redirectors[_rack_of(spec, redirectors, name)].ip)

    # -- services -----------------------------------------------------
    services: list[ReplicatedTcpService] = []
    service_points: list[tuple[str, int]] = []
    for placement in spec.services:
        authority = redirectors[placement.authority or spec.redirectors[0].name]
        service = ReplicatedTcpService(
            placement.service_ip,
            placement.port,
            echo_server_factory,
            authority_ip=authority.ip,
        )
        service.add_primary(ft_nodes[placement.primary])
        for backup in placement.backups:
            service.add_backup(ft_nodes[backup])
        services.append(service)
        service_points.append((placement.service_ip, placement.port))

    sim.run(until=sim.now + SETTLE)
    return CompiledMesh(
        spec=spec,
        sim=sim,
        topo=topo,
        redirectors=redirectors,
        daemons=daemons,
        host_servers=host_servers,
        ft_nodes=ft_nodes,
        clients=clients,
        services=services,
        service_points=service_points,
    )
