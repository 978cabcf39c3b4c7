"""Tests for links: serialization, latency, loss, queues, failures."""

import pytest

from repro.netsim import (
    Host,
    IPAddress,
    IPPacket,
    Link,
    Network,
    Protocol,
    RawData,
    Simulator,
    ZERO_COST,
)


def build_pair(sim, **link_kw):
    """Two directly connected zero-CPU-cost hosts."""
    a = Host(sim, "a", ZERO_COST)
    b = Host(sim, "b", ZERO_COST)
    net = Network("10.0.0.0/30")
    nic_a = a.add_interface("10.0.0.1", net)
    nic_b = b.add_interface("10.0.0.2", net)
    link = Link(sim, name="a<->b", **link_kw)
    link.attach(nic_a, nic_b)
    return a, b, link


def make_packet(size=80, src="10.0.0.1", dst="10.0.0.2"):
    return IPPacket(
        src=IPAddress(src),
        dst=IPAddress(dst),
        protocol=Protocol.ICMP,
        payload=RawData(b"x" * (size - 20)),
    )


def install_sink(host):
    received = []
    host.kernel.register_protocol(Protocol.ICMP, received.append)
    return received


def test_packet_arrives_at_other_end():
    sim = Simulator()
    a, b, _link = build_pair(sim)
    received = install_sink(b)
    a.kernel.send_ip(make_packet())
    sim.run()
    assert len(received) == 1


def test_delivery_time_is_serialization_plus_latency():
    sim = Simulator()
    # 1 Mb/s, 10 ms latency, 1000-byte packet -> 8 ms + 10 ms = 18 ms.
    a, b, _link = build_pair(sim, bandwidth_bps=1_000_000, latency=0.010)
    times = []
    b.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
    a.kernel.send_ip(make_packet(size=1000))
    sim.run()
    assert times == [pytest.approx(0.018)]


def test_back_to_back_packets_serialize():
    sim = Simulator()
    a, b, _link = build_pair(sim, bandwidth_bps=1_000_000, latency=0.0)
    times = []
    b.kernel.register_protocol(Protocol.ICMP, lambda p: times.append(sim.now))
    a.kernel.send_ip(make_packet(size=1000))
    a.kernel.send_ip(make_packet(size=1000))
    sim.run()
    assert times == [pytest.approx(0.008), pytest.approx(0.016)]


def test_duplex_directions_are_independent():
    sim = Simulator()
    a, b, _link = build_pair(sim, bandwidth_bps=1_000_000, latency=0.0)
    times_b, times_a = [], []
    b.kernel.register_protocol(Protocol.ICMP, lambda p: times_b.append(sim.now))
    a.kernel.register_protocol(Protocol.ICMP, lambda p: times_a.append(sim.now))
    a.kernel.send_ip(make_packet(size=1000))
    b.kernel.send_ip(make_packet(size=1000, src="10.0.0.2", dst="10.0.0.1"))
    sim.run()
    # Opposite directions don't share the transmitter.
    assert times_b == [pytest.approx(0.008)]
    assert times_a == [pytest.approx(0.008)]


def test_queue_overflow_drops_tail():
    sim = Simulator()
    a, b, link = build_pair(sim, bandwidth_bps=1_000_000, queue_capacity=4)
    received = install_sink(b)
    for _ in range(10):
        a.kernel.send_ip(make_packet(size=1000))
    sim.run()
    assert len(received) == 4
    assert link.a_to_b.packets_dropped_queue == 6


def test_loss_rate_one_drops_everything():
    sim = Simulator()
    a, b, link = build_pair(sim, loss_rate=1.0)
    received = install_sink(b)
    for _ in range(5):
        a.kernel.send_ip(make_packet())
    sim.run()
    assert received == []
    assert link.a_to_b.packets_lost == 5


def test_loss_rate_statistical():
    sim = Simulator(seed=42)
    a, b, link = build_pair(sim, loss_rate=0.5, queue_capacity=1000)
    received = install_sink(b)
    for _ in range(400):
        a.kernel.send_ip(make_packet())
    sim.run()
    assert 120 < len(received) < 280


def test_link_down_drops_packets():
    sim = Simulator()
    a, b, link = build_pair(sim)
    received = install_sink(b)
    link.set_up(False)
    a.kernel.send_ip(make_packet())
    sim.run()
    assert received == []
    link.set_up(True)
    a.kernel.send_ip(make_packet())
    sim.run()
    assert len(received) == 1


def test_link_going_down_mid_flight_drops():
    sim = Simulator()
    a, b, link = build_pair(sim, latency=1.0)
    received = install_sink(b)
    a.kernel.send_ip(make_packet())
    sim.schedule(0.5, link.set_up, False)
    sim.run()
    assert received == []


def test_counters_track_bytes_and_packets():
    sim = Simulator()
    a, b, link = build_pair(sim)
    install_sink(b)
    a.kernel.send_ip(make_packet(size=100))
    a.kernel.send_ip(make_packet(size=200))
    sim.run()
    assert link.a_to_b.packets_sent == 2
    assert link.a_to_b.bytes_sent == 300


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, loss_rate=1.5)


def test_loss_rate_validated_after_construction():
    """The range check guards every assignment, not only ``__init__``."""
    link = Link(Simulator(), loss_rate=0.25)
    with pytest.raises(ValueError):
        link.a_to_b.loss_rate = 1.5
    with pytest.raises(ValueError):
        link.set_loss_rate(-0.1)
    assert (link.a_to_b.loss_rate, link.b_to_a.loss_rate) == (0.25, 0.25)
    link.set_loss_rate(1.0)
    assert (link.a_to_b.loss_rate, link.b_to_a.loss_rate) == (1.0, 1.0)
