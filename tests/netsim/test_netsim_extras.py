"""Additional netsim coverage: channel internals, NIC states,
reassembler bookkeeping, allocator scale, tracer filtering."""

import pytest

from repro.netsim import (
    AddressAllocator,
    Host,
    IPAddress,
    IPPacket,
    Network,
    Protocol,
    RawData,
    Simulator,
    Topology,
    Tracer,
    ZERO_COST,
)


def make_packet(src, dst, size=100):
    return IPPacket(
        src=IPAddress(str(src)),
        dst=IPAddress(str(dst)),
        protocol=Protocol.ICMP,
        payload=RawData(b"x" * max(0, size - 20)),
    )


class TestChannelInternals:
    def test_queue_depth_tracks_backlog(self):
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        link = topo.connect(a, b, bandwidth_bps=100_000)  # slow
        topo.build_routes()
        b.kernel.register_protocol(Protocol.ICMP, lambda p: None)
        for _ in range(5):
            a.kernel.send_ip(make_packet(a.ip, b.ip, size=1000))
        sim.run(max_events=12)
        assert link.a_to_b.queue_depth > 0
        sim.run()
        assert link.a_to_b.queue_depth == 0

    def test_transmission_time(self):
        """wire_size * 8 / bandwidth, as the channel serializes it."""
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        topo.connect(a, b, bandwidth_bps=1_000_000, latency=0.0)
        topo.build_routes()
        times = []
        b.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
        a.kernel.send_ip(make_packet(a.ip, b.ip, size=1000))
        sim.run()
        assert times == [pytest.approx(0.008)]

    def test_one_way_partition(self):
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        link = topo.connect(a, b)
        topo.build_routes()
        got_a, got_b = [], []
        a.kernel.register_protocol(Protocol.ICMP, got_a.append)
        b.kernel.register_protocol(Protocol.ICMP, got_b.append)
        link.a_to_b.up = False  # only a->b direction dies
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        b.kernel.send_ip(make_packet(b.ip, a.ip))
        sim.run()
        assert got_b == []
        assert len(got_a) == 1


class TestNicStates:
    def test_nic_down_drops_both_ways(self):
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        topo.connect(a, b)
        topo.build_routes()
        received = []
        b.kernel.register_protocol(Protocol.ICMP, received.append)
        b.interfaces[0].up = False
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        sim.run()
        assert received == []
        b.interfaces[0].up = True
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        sim.run()
        assert len(received) == 1

    def test_unconnected_nic_drop(self):
        sim = Simulator()
        host = Host(sim, "lone", ZERO_COST)
        host.add_interface("10.0.0.1", "10.0.0.0/30")
        host.kernel.send_ip(make_packet("10.0.0.1", "10.0.0.2"))
        sim.run()  # no crash; packet silently dropped at unconnected NIC

    def test_oversized_packet_raises_at_nic(self):
        """The kernel always fragments before NIC.send; handing the NIC
        an oversized packet directly is a programming error."""
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        topo.connect(a, b, mtu=100)
        topo.build_routes()
        with pytest.raises(ValueError):
            a.interfaces[0].send(make_packet(a.ip, b.ip, size=200))


class TestAllocatorScale:
    def test_large_network_iteration(self):
        alloc = AddressAllocator("10.0.0.0/16")
        first = alloc.allocate()
        assert str(first) == "10.0.0.1"
        for _ in range(300):
            addr = alloc.allocate()
        assert addr in Network("10.0.0.0/16")

    def test_crossing_octet_boundary(self):
        alloc = AddressAllocator("10.0.0.0/23")
        addresses = [alloc.allocate() for _ in range(300)]
        assert str(addresses[255]) == "10.0.1.0"  # past the /24 boundary


class TestTracerFiltering:
    def test_filter_limits_records_not_counters(self):
        sim = Simulator()
        sim.tracer = Tracer(filter=lambda record: record.event == "rx")
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        topo.connect(a, b)
        topo.build_routes()
        b.kernel.register_protocol(Protocol.ICMP, lambda p: None)
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        sim.run()
        assert all(r.event == "rx" for r in sim.tracer.records)
        assert sim.tracer.count("tx") == 1  # counted even when not kept

    def test_clear_resets(self):
        tracer = Tracer()
        tracer.record(0.0, "n", "tx", make_packet("1.1.1.1", "2.2.2.2"))
        tracer.clear()
        assert tracer.records == []
        assert tracer.count("tx") == 0


class TestKernelMisc:
    def test_packet_hook_removal_during_iteration_safe(self):
        sim = Simulator()
        topo = Topology(sim)
        a = topo.add_host("a", ZERO_COST)
        b = topo.add_host("b", ZERO_COST)
        topo.connect(a, b)
        topo.build_routes()
        fired = []

        def one_shot(packet, nic):
            fired.append(1)
            b.kernel.remove_packet_hook(one_shot)
            return False

        received = []
        b.kernel.add_packet_hook(one_shot)
        b.kernel.register_protocol(Protocol.ICMP, received.append)
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        a.kernel.send_ip(make_packet(a.ip, b.ip))
        sim.run()
        assert fired == [1]
        assert len(received) == 2

    def test_route_str_and_repr(self):
        sim = Simulator()
        host = Host(sim, "h", ZERO_COST)
        host.add_interface("10.0.0.1", "10.0.0.0/30")
        route = host.kernel.routes[0]
        assert "10.0.0.0/30" in str(route)
