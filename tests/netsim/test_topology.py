"""Tests for the topology builder and tracer."""

import pytest

from repro.netsim import (
    IPAddress,
    IPPacket,
    Protocol,
    RawData,
    Simulator,
    Topology,
    TopologyError,
    Tracer,
    ZERO_COST,
)


def make_packet(src, dst):
    return IPPacket(
        src=IPAddress(str(src)),
        dst=IPAddress(str(dst)),
        protocol=Protocol.ICMP,
        payload=RawData(b"x" * 40),
    )


def test_connect_allocates_distinct_subnets():
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    c = topo.add_host("c")
    topo.connect(a, b)
    topo.connect(b, c)
    assert a.interfaces[0].network != c.interfaces[0].network


def test_duplicate_host_name_rejected():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_host("a")
    with pytest.raises(TopologyError):
        topo.add_host("a")


def test_connect_unregistered_host_rejected():
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a")
    from repro.netsim import Host

    stranger = Host(sim, "stranger")
    with pytest.raises(TopologyError):
        topo.connect(a, stranger)


def test_explicit_subnet():
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    topo.connect(a, b, subnet="192.168.5.0/30")
    assert str(a.interfaces[0].ip) == "192.168.5.1"
    assert str(b.interfaces[0].ip) == "192.168.5.2"


def test_routes_reach_across_diamond():
    """Routing works over a non-trivial (diamond) topology."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_host("src", ZERO_COST)
    r1 = topo.add_router("r1", ZERO_COST)
    r2 = topo.add_router("r2", ZERO_COST)
    r3 = topo.add_router("r3", ZERO_COST)
    dst = topo.add_host("dst", ZERO_COST)
    topo.connect(src, r1)
    topo.connect(r1, r2)
    topo.connect(r1, r3)
    topo.connect(r2, dst)
    topo.connect(r3, dst)
    topo.build_routes()
    received = []
    dst.kernel.register_protocol(Protocol.ICMP, received.append)
    # dst has two addresses; send to each.
    for nic in dst.interfaces:
        src.kernel.send_ip(make_packet(src.ip, nic.ip))
    sim.run()
    assert len(received) == 2


def test_external_network_routes_toward_via_host():
    sim = Simulator()
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    r1 = topo.add_router("r1", ZERO_COST)
    r2 = topo.add_router("r2", ZERO_COST)
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.add_external_network("203.0.113.0/24", r2)
    topo.build_routes()
    # r2 sees the packet arrive (it is the interception point).
    seen = []
    r2.kernel.add_packet_hook(lambda p, nic: seen.append(p) or True)
    client.kernel.send_ip(make_packet(client.ip, "203.0.113.7"))
    sim.run()
    assert len(seen) == 1


def test_find_link_both_orders():
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    link = topo.connect(a, b)
    assert topo.find_link(a, b) is link
    assert topo.find_link("b", "a") is link
    with pytest.raises(TopologyError):
        topo.find_link("a", "nope")


def test_tracer_records_and_counts():
    sim = Simulator()
    sim.tracer = Tracer()
    topo = Topology(sim)
    a = topo.add_host("a", ZERO_COST)
    b = topo.add_host("b", ZERO_COST)
    topo.connect(a, b)
    topo.build_routes()
    b.kernel.register_protocol(Protocol.ICMP, lambda p: None)
    a.kernel.send_ip(make_packet(a.ip, b.ip))
    sim.run()
    assert sim.tracer.count("tx") == 1
    assert sim.tracer.count("rx") == 1
    assert sim.tracer.count("rx:ICMP") == 1
    assert "ICMP" in sim.tracer.dump()


def test_tracer_counters_without_records():
    sim = Simulator()
    sim.tracer = Tracer(keep_records=False)
    topo = Topology(sim)
    a = topo.add_host("a", ZERO_COST)
    b = topo.add_host("b", ZERO_COST)
    topo.connect(a, b)
    topo.build_routes()
    b.kernel.register_protocol(Protocol.ICMP, lambda p: None)
    a.kernel.send_ip(make_packet(a.ip, b.ip))
    sim.run()
    assert sim.tracer.count("tx") == 1
    assert sim.tracer.records == []
