"""Tests for the ttcp workload (TCP and UDP modes)."""

import pytest

from repro.apps.ttcp import TTCP_TCP_OPTIONS, TtcpSender, UdpTtcpSender, UdpTtcpSink, install_ttcp_sink
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for


@pytest.fixture()
def net():
    sim = Simulator()
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    router = topo.add_router("router", ZERO_COST)
    server = topo.add_host("server", ZERO_COST)
    topo.connect(client, router)
    topo.connect(router, server)
    topo.build_routes()
    return sim, node_for(client, TTCP_TCP_OPTIONS), node_for(server, TTCP_TCP_OPTIONS), server


def test_tcp_transfer_completes(net):
    sim, client, server_node, server = net
    install_ttcp_sink(server_node)
    sender = TtcpSender(client, server_node.ip, buflen=512, nbuf=100)
    sender.start()
    sim.run(until=60.0)
    result = sender.result()
    assert result.completed
    assert result.bytes_sent == 512 * 100
    assert result.throughput_kB_per_sec > 0


def test_tcp_duration_excludes_time_wait(net):
    sim, client, server_node, server = net
    install_ttcp_sink(server_node)
    sender = TtcpSender(client, server_node.ip, buflen=512, nbuf=50)
    sender.start()
    sim.run(until=120.0)
    result = sender.result()
    # 25KB over fast links completes in well under a second; TIME_WAIT
    # (10s) must not be counted.
    assert result.duration < 1.0


def test_tcp_on_finish_callback(net):
    sim, client, server_node, server = net
    install_ttcp_sink(server_node)
    results = []
    sender = TtcpSender(client, server_node.ip, buflen=256, nbuf=10)
    sender.on_finish = results.append
    sender.start()
    sim.run(until=60.0)
    assert len(results) == 1
    assert results[0].completed


def test_tcp_segment_sizes_match_buflen(net):
    """Measurement mode: each buffer is exactly one wire segment."""
    sim, client, server_node, server = net
    install_ttcp_sink(server_node)
    from repro.netsim.packet import TCPSegment

    from repro.netsim.trace import Tracer

    sim.tracer = Tracer()
    sender = TtcpSender(client, server_node.ip, buflen=200, nbuf=20)
    sender.start()
    sim.run(until=60.0)
    nic = client.host.interfaces[0]
    sizes = [
        len(record.packet.payload.data)
        for record in sim.tracer.records
        if record.event == "tx"
        and record.node == nic.name
        and isinstance(record.packet.payload, TCPSegment)
        and record.packet.payload.data
    ]
    assert sizes == [200] * 20


def test_udp_mode_counts_at_receiver(net):
    sim, client, server_node, server = net
    sink = UdpTtcpSink(server_node)
    sender = UdpTtcpSender(client, server_node.ip, buflen=400, nbuf=50)
    sender.start()
    sim.run(until=60.0)
    result = sink.result(buflen=400, nbuf=50)
    assert result.datagrams_received == 50
    assert result.bytes_received == 400 * 50
    assert result.throughput_kB_per_sec > 0


def test_udp_incomplete_result_without_traffic(net):
    sim, client, server_node, server = net
    sink = UdpTtcpSink(server_node)
    result = sink.result(buflen=400, nbuf=50)
    assert not result.completed
    assert result.throughput_kB_per_sec == 0.0
