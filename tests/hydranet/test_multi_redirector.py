"""Multiple redirectors (Figure 1: every client population behind its
own redirector).  One redirector is the chain authority; peers receive
TableSync and multicast identically."""

import pytest

from repro.apps.echo import echo_server_factory
from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for

SERVICE_IP = "198.51.100.7"


@pytest.fixture()
def world():
    """c1 - R1 - R2 - c2, host servers on both redirectors.

    R1 is the authority (replicas register there); R2 is a peer.
    """
    sim = Simulator(seed=0)
    topo = Topology(sim)
    c1 = topo.add_host("c1", ZERO_COST)
    c2 = topo.add_host("c2", ZERO_COST)
    r1 = Redirector(sim, "r1", ZERO_COST, software_overhead=0.0)
    r2 = Redirector(sim, "r2", ZERO_COST, software_overhead=0.0)
    topo.add(r1)
    topo.add(r2)
    hs_a = HostServer(sim, "hs_a", ZERO_COST, software_overhead=0.0)
    hs_b = HostServer(sim, "hs_b", ZERO_COST, software_overhead=0.0)
    topo.add(hs_a)
    topo.add(hs_b)
    topo.connect(c1, r1)
    topo.connect(c2, r2)
    topo.connect(r1, r2)
    topo.connect(r1, hs_a)
    topo.connect(r2, hs_b)
    # The service address routes toward R1; traffic from c2 crosses R2
    # first, so R2's table must intercept it there.
    topo.add_external_network(f"{SERVICE_IP}/32", r1)
    topo.build_routes()
    d1 = RedirectorDaemon(r1)
    d2 = RedirectorDaemon(r2)
    d1.add_peer(r2.ip)
    service = ReplicatedTcpService(
        SERVICE_IP, 7, echo_server_factory, detector=DetectorParams(threshold=3, cooldown=1.0)
    )
    service.add_primary(FtNode(hs_a, r1.ip))
    service.add_backup(FtNode(hs_b, r1.ip))
    sim.run(until=2.0)
    return sim, topo, (c1, c2), (r1, r2), (hs_a, hs_b), service


def test_peer_table_synced(world):
    sim, topo, clients, (r1, r2), servers, service = world
    e1 = r1.entry_for(SERVICE_IP, 7)
    e2 = r2.entry_for(SERVICE_IP, 7)
    assert e1 is not None and e2 is not None
    assert e1.replicas == e2.replicas
    assert e2.fault_tolerant


def test_client_behind_peer_redirector_served(world):
    sim, topo, (c1, c2), redirectors, servers, service = world
    got = bytearray()
    conn = node_for(c2).connect(SERVICE_IP, 7)
    conn.on_data = got.extend
    conn.on_established = lambda: conn.send(b"via the peer redirector")
    sim.run(until=10.0)
    assert bytes(got) == b"via the peer redirector"


def test_both_clients_replicated_to_both_servers(world):
    sim, topo, (c1, c2), redirectors, (hs_a, hs_b), service = world
    for client, payload in ((c1, b"from c1"), (c2, b"from c2")):
        got = bytearray()
        conn = node_for(client).connect(SERVICE_IP, 7)
        conn.on_data = got.extend
        conn.on_established = (lambda c, p: lambda: c.send(p))(conn, payload)
    sim.run(until=10.0)
    # Both replicas saw both connections.
    assert len(service.replicas[0].ft_port.states) == 2
    assert len(service.replicas[1].ft_port.states) == 2


def test_failover_propagates_to_peer(world):
    sim, topo, (c1, c2), (r1, r2), (hs_a, hs_b), service = world
    got = bytearray()
    conn = node_for(c2).connect(SERVICE_IP, 7)
    conn.on_data = got.extend
    payload = bytes(i % 256 for i in range(40_000))
    sent = {"n": 0}

    def pump():
        while sent["n"] < len(payload):
            n = conn.send(payload[sent["n"] : sent["n"] + 2048])
            sent["n"] += n
            if n == 0:
                return

    conn.on_established = pump
    conn.on_send_space = pump
    sim.run(until=sim.now + 0.05)
    hs_a.crash()
    sim.run(until=240.0)
    assert bytes(got) == payload
    assert service.replicas[1].ft_port.is_primary
    # The peer's table reflects the reconfiguration.
    e2 = r2.entry_for(SERVICE_IP, 7)
    assert e2.replicas == [hs_b.ip]


def test_scaling_entry_synced_to_peer(world):
    sim, topo, clients, (r1, r2), (hs_a, hs_b), service = world
    daemon = service.replicas[0].node.daemon  # hs_a's existing daemon
    hs_a.v_host("203.0.113.9")
    listener = hs_a.node.listen(80, ip="203.0.113.9")
    listener.on_accept = lambda conn: conn.send(b"scaled")
    daemon.register("203.0.113.9", 80, "scaling", "chain")
    sim.run(until=sim.now + 3.0)
    e2 = r2.entry_for("203.0.113.9", 80)
    assert e2 is not None
    assert not e2.fault_tolerant
    assert e2.replicas == [hs_a.ip]
