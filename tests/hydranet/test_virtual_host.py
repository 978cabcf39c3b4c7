"""Tests for virtual hosts and host servers."""

import pytest

from repro.hydranet import HostServer
from repro.netsim import (
    IPAddress,
    IPPacket,
    Protocol,
    RawData,
    Simulator,
    encapsulate,
)


@pytest.fixture()
def hs():
    sim = Simulator()
    server = HostServer(sim, "hs", software_overhead=0.0)
    server.add_interface("10.0.0.1", "10.0.0.0/30")
    return sim, server


def test_v_host_registers_address(hs):
    sim, server = hs
    server.v_host("192.20.225.20")
    assert server.kernel.owns_address(IPAddress("192.20.225.20"))


def test_v_host_idempotent(hs):
    sim, server = hs
    server.v_host("192.20.225.20")
    server.v_host("192.20.225.20")
    assert server.kernel.virtual_addresses == {IPAddress("192.20.225.20")}


def test_tunnel_endpoint_delivers_to_virtual_host(hs):
    sim, server = hs
    server.v_host("192.20.225.20")
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    inner = IPPacket(
        src=IPAddress("1.2.3.4"),
        dst=IPAddress("192.20.225.20"),
        protocol=Protocol.ICMP,
        payload=RawData(b"tunneled"),
    )
    outer = encapsulate(inner, IPAddress("9.9.9.9"), IPAddress("10.0.0.1"))
    server.kernel._deliver_local(outer)
    sim.run()
    assert received == [inner]
    assert server.tunneled_packets_received == 1


def test_tunnel_to_missing_vhost_dropped(hs):
    sim, server = hs
    received = []
    server.kernel.register_protocol(Protocol.ICMP, received.append)
    inner = IPPacket(
        src=IPAddress("1.2.3.4"),
        dst=IPAddress("203.0.113.5"),  # not a vhost here
        protocol=Protocol.ICMP,
        payload=RawData(b"lost"),
    )
    outer = encapsulate(inner, IPAddress("9.9.9.9"), IPAddress("10.0.0.1"))
    server.kernel._deliver_local(outer)
    sim.run()
    assert received == []


def test_malformed_tunnel_payload_dropped(hs):
    sim, server = hs
    bogus = IPPacket(
        src=IPAddress("9.9.9.9"),
        dst=IPAddress("10.0.0.1"),
        protocol=Protocol.IPIP,
        payload=RawData(b"not a packet"),
    )
    server.kernel._deliver_local(bogus)
    sim.run()
    assert server.tunneled_packets_received == 0
