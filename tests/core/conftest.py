"""Shared testbed for HydraNet-FT core tests.

client --- redirector --- hs_a (primary)
                   \\----- hs_b (backup 1)
                    \\---- hs_c (backup 2, optional)

The service address routes toward the redirector (non-existent origin
host, as in the paper's Figure 4 setup).
"""

import pytest

from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for

SERVICE_IP = "192.20.225.20"
SERVICE_PORT = 80


def echo_factory(host_server):
    """Deterministic echo server: every replica produces the same bytes."""

    def on_accept(conn):
        def on_data(data):
            conn.send(data)

        conn.on_data = on_data
        conn.on_remote_close = conn.close

    return on_accept


def sink_factory(host_server):
    """Deterministic sink: receives, never responds."""
    received = bytearray()

    def on_accept(conn):
        conn.on_data = received.extend
        conn.on_remote_close = conn.close

    on_accept.received = received
    return on_accept


class FtTestbed:
    def __init__(
        self,
        n_backups=1,
        seed=0,
        detector=None,
        factory=echo_factory,
        tcp_options=None,
        n_spares=0,
        **link_kw,
    ):
        self.sim = Simulator(seed=seed)
        self.topo = Topology(self.sim)
        self.client = self.topo.add_host("client", ZERO_COST)
        self.redirector = Redirector(self.sim, "redirector", ZERO_COST, software_overhead=0.0)
        self.topo.add(self.redirector)
        defaults = dict(bandwidth_bps=10_000_000, latency=0.001)
        defaults.update(link_kw)
        self.topo.connect(self.client, self.redirector, **defaults)
        self.servers = []
        for i in range(1 + n_backups + n_spares):
            hs = HostServer(self.sim, f"hs_{chr(97 + i)}", ZERO_COST, software_overhead=0.0)
            self.topo.add(hs)
            self.topo.connect(self.redirector, hs, **defaults)
            self.servers.append(hs)
        self.topo.add_external_network(f"{SERVICE_IP}/32", self.redirector)
        self.topo.build_routes()

        self.redirector_daemon = RedirectorDaemon(self.redirector)
        self.nodes = [FtNode(hs, self.redirector.ip) for hs in self.servers]
        # Idle nodes for the recovery subsystem's spare pool (never
        # bound to the service here).
        self.spare_nodes = self.nodes[1 + n_backups :]
        self.factories = {}

        def wrapped_factory(host_server):
            handler = factory(host_server)
            self.factories[host_server.name] = handler
            return handler

        self.service = ReplicatedTcpService(
            SERVICE_IP,
            SERVICE_PORT,
            wrapped_factory,
            detector=detector or DetectorParams(threshold=4, cooldown=1.0),
            tcp_options=tcp_options,
        )
        if n_spares:
            # Hand-driven joins need what a RecoveryManager would arm.
            self.service.retain_client_streams()
        self.primary_handle = self.service.add_primary(self.nodes[0])
        self.backup_handles = [
            self.service.add_backup(n) for n in self.nodes[1 : 1 + n_backups]
        ]
        # Let registration and chain setup settle.
        self.sim.run(until=2.0)
        self.client_node = node_for(self.client)

    @property
    def primary_server(self):
        return self.servers[0]

    def connect(self, tcp_options=None):
        return self.client_node.connect(SERVICE_IP, SERVICE_PORT, options=tcp_options)

    def run(self, until=None):
        self.sim.run(until=until)
        return self.sim.now

    def run_for(self, duration):
        return self.run(until=self.sim.now + duration)

    def server_conn(self, index):
        """The replica's TcpConnection for the (single) client conn."""
        ft_port = (
            self.primary_handle.ft_port
            if index == 0
            else self.backup_handles[index - 1].ft_port
        )
        states = list(ft_port.states.values())
        return states[0].conn if states else None

    def ft_port(self, index):
        if index == 0:
            return self.primary_handle.ft_port
        return self.backup_handles[index - 1].ft_port


@pytest.fixture()
def testbed():
    return FtTestbed(n_backups=1)


@pytest.fixture()
def testbed2():
    return FtTestbed(n_backups=2)
