"""Tests for hosts, kernels, routing, forwarding, and the CPU model."""

import pytest

from repro.netsim import (
    Host,
    HostProfile,
    IPAddress,
    IPPacket,
    Protocol,
    RawData,
    Simulator,
    Topology,
    ZERO_COST,
)


def make_packet(src, dst, size=100, **kw):
    return IPPacket(
        src=IPAddress(src),
        dst=IPAddress(dst),
        protocol=Protocol.ICMP,
        payload=RawData(b"x" * max(0, size - 20)),
        **kw,
    )


def line_topology(sim, n_routers=1, **link_kw):
    """client - router(s) - server, all zero CPU cost."""
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    prev = client
    routers = []
    for i in range(n_routers):
        router = topo.add_router(f"r{i}", ZERO_COST)
        topo.connect(prev, router, **link_kw)
        routers.append(router)
        prev = router
    server = topo.add_host("server", ZERO_COST)
    topo.connect(prev, server, **link_kw)
    topo.build_routes()
    return topo, client, routers, server


def test_direct_delivery_between_neighbors():
    sim = Simulator()
    topo, client, routers, server = line_topology(sim, n_routers=0)
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert len(received) == 1


def test_forwarding_through_router():
    sim = Simulator()
    topo, client, routers, server = line_topology(sim, n_routers=1)
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert len(received) == 1
    assert routers[0].kernel.packets_forwarded == 1


def test_forwarding_through_many_routers_decrements_ttl():
    sim = Simulator()
    topo, client, routers, server = line_topology(sim, n_routers=3)
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, server.ip, ttl=64))
    sim.run()
    assert received[0].ttl == 61


def test_ttl_expiry_drops_packet():
    sim = Simulator()
    topo, client, routers, server = line_topology(sim, n_routers=3)
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, server.ip, ttl=2))
    sim.run()
    assert received == []


def test_host_does_not_forward():
    """A non-router host drops packets not addressed to it."""
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a", ZERO_COST)
    b = topo.add_host("b", ZERO_COST)
    c = topo.add_host("c", ZERO_COST)
    topo.connect(a, b)
    topo.connect(b, c)
    topo.build_routes()
    received = []
    c.kernel.register_protocol(Protocol.ICMP, received.append)
    a.kernel.send_ip(make_packet(a.ip, c.ip))
    sim.run()
    assert received == []
    assert b.kernel.packets_dropped == 1


def test_no_route_drops():
    sim = Simulator()
    topo, client, _, server = line_topology(sim, n_routers=1)
    client.kernel.send_ip(make_packet(client.ip, "172.16.0.1"))
    sim.run()
    # The router has no route for 172.16/16.
    assert topo.host("r0").kernel.packets_dropped == 1


def test_local_loopback_delivery():
    sim = Simulator()
    topo, client, _, _ = line_topology(sim)
    received = []
    client.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, client.ip))
    sim.run()
    assert len(received) == 1


def test_virtual_address_accepted():
    sim = Simulator()
    topo, client, _, server = line_topology(sim)
    topo.add_external_network("192.20.225.20/32", server)
    topo.build_routes()
    server.kernel.virtual_addresses.add(IPAddress("192.20.225.20"))
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, "192.20.225.20"))
    sim.run()
    assert len(received) == 1


def test_longest_prefix_match_wins():
    sim = Simulator()
    host = Host(sim, "h", ZERO_COST)
    nic_wide = host.add_interface("10.0.0.1", "10.0.0.0/30")
    nic_narrow = host.add_interface("10.9.0.1", "10.9.0.0/30")
    host.kernel.add_route("10.0.0.0/8", nic_wide)
    host.kernel.add_route("10.9.1.0/24", nic_narrow)
    assert host.kernel.route_lookup(IPAddress("10.9.1.5")) is nic_narrow
    assert host.kernel.route_lookup(IPAddress("10.3.0.1")) is nic_wide


def test_crashed_host_ignores_everything():
    sim = Simulator()
    topo, client, _, server = line_topology(sim)
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    server.crash()
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert received == []
    server.recover()
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert len(received) == 1


def test_crashed_host_does_not_send():
    sim = Simulator()
    topo, client, _, server = line_topology(sim)
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.crash()
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert received == []


class TestCpuModel:
    def test_cpu_cost_delays_delivery(self):
        sim = Simulator()
        profile = HostProfile("slow", per_packet_cpu=0.01, per_byte_cpu=0.0)
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", profile)
        topo.connect(a, b, latency=0.0, bandwidth_bps=1e9)
        topo.build_routes()
        times = []
        b.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
        a.kernel.send_ip(make_packet(a.ip, b.ip, size=100))
        sim.run()
        assert times[0] >= 0.01

    def test_cpu_serializes_across_packets(self):
        sim = Simulator()
        profile = HostProfile("slow", per_packet_cpu=0.01, per_byte_cpu=0.0)
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", profile)
        topo.connect(a, b, latency=0.0, bandwidth_bps=1e9)
        topo.build_routes()
        times = []
        b.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
        for _ in range(3):
            a.kernel.send_ip(make_packet(a.ip, b.ip, size=100))
        sim.run()
        # Second and third packets queue behind the first on the CPU.
        assert times[1] - times[0] >= 0.009
        assert times[2] - times[1] >= 0.009

    def test_software_overhead_adds_cost(self):
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        topo.connect(a, b, latency=0.0, bandwidth_bps=1e9)
        topo.build_routes()
        b.kernel.software_overhead = 0.005
        times = []
        b.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        sim.run()
        assert times[0] >= 0.005

    def test_profile_packet_cost(self):
        """per_packet_cpu + per_byte_cpu * wire_size, as the kernel
        charges it to a received packet."""
        sim = Simulator()
        profile = HostProfile("x", per_packet_cpu=1e-4, per_byte_cpu=1e-6)
        host = Host(sim, "h", profile)
        nic = host.add_interface("10.0.0.1", "10.0.0.0/24")
        times = []
        host.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
        host.kernel.receive_from_nic(make_packet("10.0.0.2", "10.0.0.1", size=1000), nic)
        sim.run()
        assert times == [pytest.approx(1e-4 + 1e-3)]


def test_packet_hook_consumes():
    sim = Simulator()
    topo, client, _, server = line_topology(sim)
    received = []
    hooked = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    server.kernel.add_packet_hook(lambda p, nic: hooked.append(p) or True)
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert len(hooked) == 1
    assert received == []


def test_packet_hook_pass_through():
    sim = Simulator()
    topo, client, _, server = line_topology(sim)
    received = []
    server.kernel.add_packet_hook(lambda p, nic: False)
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    client.kernel.send_ip(make_packet(client.ip, server.ip))
    sim.run()
    assert len(received) == 1


def _sweep_host():
    """A host whose kernel is fed packets straight from its NIC."""
    sim = Simulator()
    host = Host(sim, "h", ZERO_COST)
    nic = host.add_interface("10.0.0.1", "10.0.0.0/24")
    host.kernel.register_protocol(Protocol.ICMP, lambda p: None)

    def feed():
        host.kernel.receive_from_nic(make_packet("10.0.0.2", "10.0.0.1"), nic)
        sim.run()

    return host.kernel, feed


def test_hook_removing_itself_mid_sweep_does_not_hide_the_next_hook():
    kernel, feed = _sweep_host()
    seen = []

    def one_shot(packet, nic):
        seen.append("one_shot")
        kernel.remove_packet_hook(one_shot)
        return False

    kernel.add_packet_hook(one_shot)
    kernel.add_packet_hook(lambda p, nic: seen.append("after") or False)
    feed()
    assert seen == ["one_shot", "after"]  # the sweep in progress is not disturbed
    feed()
    assert seen == ["one_shot", "after", "after"]


def test_hook_added_mid_sweep_first_sees_the_next_packet():
    kernel, feed = _sweep_host()
    seen = []

    def late(packet, nic):
        seen.append("late")
        return False

    def adder(packet, nic):
        seen.append("adder")
        if late not in kernel.packet_hooks:
            kernel.add_packet_hook(late)
        return False

    kernel.add_packet_hook(adder)
    feed()
    assert seen == ["adder"]
    feed()
    assert seen == ["adder", "adder", "late"]


def test_add_packet_hook_after():
    kernel, _ = _sweep_host()
    first, second, third = (lambda p, nic: False for _ in range(3))
    kernel.add_packet_hook(first)
    kernel.add_packet_hook(third)
    kernel.add_packet_hook(second, after=first)
    assert kernel.packet_hooks == (first, second, third)
    kernel.remove_packet_hook(first)
    kernel.add_packet_hook(first, after=first)  # `after` not registered: goes last
    assert kernel.packet_hooks == (second, third, first)


def test_host_repr_and_ip():
    sim = Simulator()
    host = Host(sim, "web")
    with pytest.raises(RuntimeError):
        _ = host.ip
    host.add_interface("10.0.0.1", "10.0.0.0/30")
    assert "web" in repr(host)
    assert str(host.ip) == "10.0.0.1"
