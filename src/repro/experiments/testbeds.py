"""Testbed builders for the paper's measurement configurations (§5).

The paper's testbed: two Pentium/120 PCs (primary and backup host
servers), two 486 PCs (client and redirector), 10 Mb/s links —
"antiquated equipment ... purposely used slow machines to measure the
effects of bottlenecks".  The CPU cost profiles reproduce that: the
486-class client is the bottleneck, so throughput is packet-rate bound
at small sizes, exactly like Figure 4.

Four configurations:

* ``clean``              — unmodified software, direct path, baseline;
* ``no_redirection``     — HydraNet-FT software installed (per-packet
  software overhead on redirector and host server) but nothing
  redirected;
* ``primary_only``       — packets for a non-existent host redirected
  (tunnelled) to a primary replica on the host server;
* ``primary_backup``     — redirector multicasts to primary + N
  backups; full ft-TCP with the acknowledgement channel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.ttcp import TTCP_TCP_OPTIONS, TtcpResult, TtcpSender, ttcp_sink_factory
from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Host, HostProfile, Simulator, Topology
from repro.netsim.simulator import Disposable
from repro.sockets import Node, node_for
from repro.tcp.options import TcpOptions

SERVICE_IP = "192.20.225.20"
TTCP_PORT = 5001

#: Calibrated-era CPU profiles (see EXPERIMENTS.md for the calibration
#: against the paper's clean-kernel curve).
CLIENT_486 = HostProfile("i486-client", per_packet_cpu=150e-6, per_byte_cpu=1.4e-6)
REDIRECTOR_486 = HostProfile("i486-redirector", per_packet_cpu=60e-6, per_byte_cpu=0.35e-6)
SERVER_P120 = HostProfile("pentium120", per_packet_cpu=70e-6, per_byte_cpu=0.6e-6)

LINK_BANDWIDTH = 10_000_000.0  # 10 Mb/s, as in the testbed
LINK_LATENCY = 0.0005
LINK_QUEUE = 64


@dataclass
class TtcpRun(Disposable):
    """Everything needed to fire one ttcp measurement."""

    sim: Simulator
    client_node: Node
    target_ip: str
    port: int = TTCP_PORT
    tcp_options: Optional[TcpOptions] = None
    #: What the builder made and :meth:`dispose` tears down.
    owned: tuple = ()

    def dispose(self) -> None:
        for part in self.owned:
            part.dispose()

    def run(
        self,
        buflen: int,
        nbuf: int = 2048,
        timeout: float = 600.0,
        tcp_options: Optional[TcpOptions] = None,
    ) -> TtcpResult:
        sender = TtcpSender(
            self.client_node,
            self.target_ip,
            self.port,
            buflen=buflen,
            nbuf=nbuf,
            tcp_options=tcp_options or self.tcp_options or TTCP_TCP_OPTIONS,
        )
        sender.start()
        self.sim.run(until=self.sim.now + timeout)
        return sender.result()


def _link_kw(**overrides):
    kw = dict(
        bandwidth_bps=LINK_BANDWIDTH,
        latency=LINK_LATENCY,
        queue_capacity=LINK_QUEUE,
    )
    kw.update(overrides)
    return kw


def build_clean(seed: int = 0) -> TtcpRun:
    """Baseline: unmodified system software, plain routing."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    client = topo.add_host("client", CLIENT_486)
    router = topo.add_router("router", REDIRECTOR_486)
    server = topo.add_host("server", SERVER_P120)
    topo.connect(client, router, **_link_kw())
    topo.connect(router, server, **_link_kw())
    topo.build_routes()
    server_node = node_for(server, TTCP_TCP_OPTIONS)
    listener = server_node.listen(TTCP_PORT, options=TTCP_TCP_OPTIONS)
    listener.on_accept = ttcp_sink_factory(None)
    client_node = node_for(client, TTCP_TCP_OPTIONS)
    return TtcpRun(sim, client_node, str(server.ip), owned=(topo,))


def build_no_redirection(seed: int = 0) -> TtcpRun:
    """HydraNet-FT system software everywhere, but no table entries:
    measures pure software overhead."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    client = topo.add_host("client", CLIENT_486)
    redirector = Redirector(sim, "redirector", REDIRECTOR_486)
    topo.add(redirector)
    server = HostServer(sim, "server", SERVER_P120)
    topo.add(server)
    topo.connect(client, redirector, **_link_kw())
    topo.connect(redirector, server, **_link_kw())
    topo.build_routes()
    daemon = RedirectorDaemon(redirector)
    listener = server.node.listen(TTCP_PORT, options=TTCP_TCP_OPTIONS)
    listener.on_accept = ttcp_sink_factory(None)
    client_node = node_for(client, TTCP_TCP_OPTIONS)
    return TtcpRun(sim, client_node, str(server.ip), owned=(topo, daemon))


@dataclass
class FtSystem(Disposable):
    """A fully wired HydraNet-FT deployment for experiments."""

    sim: Simulator
    topo: Topology
    client: Host
    client_node: Node
    redirector: Redirector
    redirector_daemon: RedirectorDaemon
    servers: list[HostServer]
    nodes: list[FtNode]
    service: ReplicatedTcpService
    service_ip: str
    port: int
    #: Idle, fully-equipped nodes not bound to the service — feed these
    #: to a :class:`repro.recovery.SparePool` for recovery experiments.
    spare_nodes: list[FtNode] = field(default_factory=list)

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19); the topology closes the simulator."""
        for part in (self.topo, self.redirector_daemon, *self.nodes, self.service.recovery):
            if part is not None:
                part.dispose()


def build_ft_system(
    seed: int = 0,
    n_backups: int = 1,
    detector: Optional[DetectorParams] = None,
    factory=ttcp_sink_factory,
    port: int = TTCP_PORT,
    tcp_options: Optional[TcpOptions] = None,
    ordered_channel: bool = False,
    n_spares: int = 0,
    strategy: str = "chain",
) -> FtSystem:
    """General FT deployment builder (era profiles, Figure-4 topology).

    ``n_spares`` adds idle host servers (daemon + ack endpoint wired,
    nothing bound) for the recovery subsystem's spare pool.

    The ``REPRO_SEED_OFFSET`` environment variable (default 0) is added
    to ``seed`` — CI's chaos job runs the integration suite under
    several offsets so seed-sensitive races (fail-over vs. partition
    timing) get coverage without editing every test."""
    seed = seed + int(os.environ.get("REPRO_SEED_OFFSET", "0") or 0)
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    client = topo.add_host("client", CLIENT_486)
    redirector = Redirector(sim, "redirector", REDIRECTOR_486)
    topo.add(redirector)
    servers = []
    for i in range(1 + n_backups + n_spares):
        hs = HostServer(sim, f"hs_{i}", SERVER_P120)
        topo.add(hs)
        servers.append(hs)
    topo.connect(client, redirector, **_link_kw())
    for hs in servers:
        topo.connect(redirector, hs, **_link_kw())
    topo.add_external_network(f"{SERVICE_IP}/32", redirector)
    topo.build_routes()
    daemon = RedirectorDaemon(redirector)
    nodes = [
        FtNode(hs, redirector.ip, ordered_channel=ordered_channel) for hs in servers
    ]
    spare_nodes = nodes[1 + n_backups :]
    service = ReplicatedTcpService(
        SERVICE_IP,
        port,
        factory,
        detector=detector or DetectorParams(),
        tcp_options=tcp_options or TTCP_TCP_OPTIONS,
        strategy=strategy,
    )
    service.add_primary(nodes[0])
    for node in nodes[1 : 1 + n_backups]:
        service.add_backup(node)
    sim.run(until=2.0)  # registration + chain setup
    client_node = node_for(client, tcp_options or TTCP_TCP_OPTIONS)
    return FtSystem(
        sim,
        topo,
        client,
        client_node,
        redirector,
        daemon,
        servers,
        nodes,
        service,
        SERVICE_IP,
        port,
        spare_nodes,
    )


def build_primary_only(seed: int = 0) -> TtcpRun:
    """Redirection to a single primary replica (no backups): measures
    the penalty of redirection + tunnelling."""
    return build_primary_backup(seed, n_backups=0)


def build_primary_backup(
    seed: int = 0, n_backups: int = 1, strategy: str = "chain"
) -> TtcpRun:
    """The full HydraNet-FT protocol with primary and backup(s)."""
    system = build_ft_system(seed=seed, n_backups=n_backups, strategy=strategy)
    return TtcpRun(system.sim, system.client_node, system.service_ip, owned=(system,))


def build_primary_only_custom_mss(mss: int, seed: int = 0):
    """Redirected primary with an explicit MSS — used by the
    fragmentation ablation to show encapsulation pushing full-MSS
    segments past the server-side MTU."""
    options = TTCP_TCP_OPTIONS.with_overrides(mss=mss)
    system = build_ft_system(seed=seed, n_backups=0, tcp_options=options)
    run = TtcpRun(
        system.sim, system.client_node, system.service_ip, tcp_options=options, owned=(system,)
    )
    return run, system.servers


FIGURE4_BUILDERS = {
    "clean": build_clean,
    "no_redirection": build_no_redirection,
    "primary_only": build_primary_only,
    "primary_backup": build_primary_backup,
}
