"""Tests for the tcpdump-flavoured trace views."""

import pytest

from repro.metrics.traceview import flows, summarize, tcp_records, time_sequence
from repro.netsim import Simulator, Topology, Tracer, ZERO_COST
from repro.tcp import TcpStack


@pytest.fixture()
def traced_transfer():
    sim = Simulator()
    sim.tracer = Tracer()
    topo = Topology(sim)
    a = topo.add_host("a", ZERO_COST)
    b = topo.add_host("b", ZERO_COST)
    topo.connect(a, b)
    topo.build_routes()
    cs, ss = TcpStack(a), TcpStack(b)
    listener = ss.listen(80)
    listener.on_accept = lambda conn: setattr(conn, "on_data", lambda d: None)
    conn = cs.connect(b.ip, 80)
    conn.on_established = lambda: (conn.send(b"q" * 3000), conn.close())
    sim.run(until=60.0)
    return sim, a, b, conn


def test_tcp_records_filter_by_node(traced_transfer):
    sim, a, b, conn = traced_transfer
    client_tx = tcp_records(sim.tracer, node="a:")
    server_tx = tcp_records(sim.tracer, node="b:")
    assert client_tx and server_tx
    assert all(r.node.startswith("a:") for r in client_tx)


def test_flows_group_one_connection(traced_transfer):
    sim, a, b, conn = traced_transfer
    grouped = flows(sim.tracer)
    assert len(grouped) == 1
    (flow, records), = grouped.items()
    assert {flow.port_a, flow.port_b} == {80, conn.local_port}


def test_time_sequence_rendering(traced_transfer):
    sim, a, b, conn = traced_transfer
    grouped = flows(sim.tracer)
    records = next(iter(grouped.values()))
    text = time_sequence(records, client_ip=str(a.ip))
    lines = text.splitlines()
    assert lines[0].lstrip().startswith("0.000000")
    assert "[S]" in lines[0]              # the SYN
    assert any("[F.]" in l for l in lines)  # a FIN
    assert any("seq 1:1461" in l for l in lines)  # relative numbering
    assert any(l.split()[1] == "<-" for l in lines)  # replies marked


def test_time_sequence_empty():
    assert time_sequence([]) == "(no records)"


def test_summarize_lists_flow(traced_transfer):
    sim, a, b, conn = traced_transfer
    text = summarize(sim.tracer)
    assert "flows:" in text
    assert "3000 payload bytes" in text
    assert "tx" in text


def test_capture_at_is_bidirectional(traced_transfer):
    from repro.metrics.traceview import capture_at

    sim, a, b, conn = traced_transfer
    records = capture_at(sim.tracer, "a")
    directions = {str(r.packet.src) for r in records}
    assert str(a.ip) in directions and str(b.ip) in directions
    times = [r.time for r in records]
    assert times == sorted(times)
