"""Every TCP payload emitter is gated by the send buffer's commit point.

Output ordering (paper §4.1): a replica sends response byte ``k`` only
after its successor reported sequence ``>= k``; ``send_buffer.commit``
is that bound.  Each path that puts payload on the wire is driven here
against a commit point below ``send_buffer.end``.  No emitted payload
byte may lie at or past it, and a path left with nothing sendable keeps
its retransmission (or persist) timer armed.  The checkpoint backend's
output-ordering violations were an RTO retransmission running past a
frozen ceiling (DESIGN.md §11.3).
"""

import pytest

from repro.netsim.packet import TCPFlags, TCPSegment
from repro.tcp import TcpOptions, TcpStack, TcpState
from repro.tcp.seqnum import seq_add, seq_diff

from .conftest import Net, start_sink_server

MSS = 536
COMMIT = 2048
QUEUED = 4 * COMMIT


def _sender(monkeypatch):
    """An ESTABLISHED client end holding ``QUEUED`` unsent bytes, and the
    list every segment it emits is appended to."""
    net = Net(options=TcpOptions(mss=MSS))
    start_sink_server(net)
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    net.run(until=0.5)
    assert conn.state is TcpState.ESTABLISHED
    emitted = []
    send_segment = TcpStack.send_segment

    def spy(stack, sender, segment):
        if sender is conn:
            emitted.append(segment)
        send_segment(stack, sender, segment)

    monkeypatch.setattr(TcpStack, "send_segment", spy)
    conn.send_buffer.commit = 0
    conn.send(bytes(QUEUED))
    assert not emitted
    return net, conn, emitted


def _in_flight(conn, una, nxt):
    """As if ``[0, nxt)`` had gone out and ``[una, nxt)`` were unacked
    when the commit point settled at ``COMMIT``."""
    conn.send_buffer.ack_to(una)
    conn.snd_una = una
    conn.snd_nxt = conn.snd_max = nxt
    conn.send_buffer.commit = COMMIT
    conn.rtx_timer.start(conn.rto.rto)


def _payload(conn, emitted):
    """The ``[start, end)`` stream range of each emitted payload."""
    ranges = []
    for segment in emitted:
        if segment.data:
            start = seq_diff(segment.seq, seq_add(conn.iss, 1))
            ranges.append((start, start + len(segment.data)))
    return ranges


def _ack(conn, acked):
    """A pure ACK from the peer up to stream offset ``acked``."""
    return TCPSegment(
        src_port=conn.remote_port,
        dst_port=conn.local_port,
        seq=seq_add(conn.irs, 1),
        ack=seq_add(conn.iss, 1 + acked),
        flags=TCPFlags.ACK,
        window=65535,
    )


def _dupacks(conn):
    for _ in range(3):
        conn.segment_arrived(_ack(conn, conn.snd_una))


def _partial_ack(conn):
    _dupacks(conn)  # fast recovery up to snd_nxt
    conn.segment_arrived(_ack(conn, conn.snd_una + 64))


RETRANSMITTERS = {
    "rto": lambda conn: conn._on_rto(),
    "dupack": _dupacks,
    "partial_ack": _partial_ack,
    "kick": lambda conn: conn.kick(),
}


def test_new_data_and_fin_wait_for_the_commit_point(monkeypatch):
    net, conn, emitted = _sender(monkeypatch)
    conn.close()
    for commit, fin in ((COMMIT, False), (QUEUED, False), (QUEUED + 1, True)):
        conn.send_buffer.commit = commit
        conn.gates_changed()
        net.run(until=net.sim.now + 5.0)
        assert max(end for _, end in _payload(conn, emitted)) == min(commit, QUEUED)
        # The FIN sits at offset QUEUED: it needs a commit point past it.
        assert conn.fin_sent is fin
    assert any(segment.flags & TCPFlags.FIN for segment in emitted)


@pytest.mark.parametrize("path", sorted(RETRANSMITTERS))
def test_retransmission_stops_at_the_commit_point(path, monkeypatch):
    """One MSS from ``snd_una`` would cross the commit point."""
    _net, conn, emitted = _sender(monkeypatch)
    _in_flight(conn, una=COMMIT - 440, nxt=COMMIT)
    RETRANSMITTERS[path](conn)
    sent = _payload(conn, emitted)
    assert sent and max(end for _, end in sent) == COMMIT
    assert conn.rtx_timer.running


@pytest.mark.parametrize("path", sorted(RETRANSMITTERS))
def test_retransmission_with_nothing_sendable_keeps_the_timer(path, monkeypatch):
    """The commit point fell behind ``snd_una`` (a promoted star primary
    restarts its member views at zero): nothing goes out, and the
    retransmission timer still runs."""
    _net, conn, emitted = _sender(monkeypatch)
    _in_flight(conn, una=COMMIT, nxt=COMMIT + 1024)
    RETRANSMITTERS[path](conn)
    assert _payload(conn, emitted) == []
    assert conn.rtx_timer.running


def test_fin_retransmission_waits_for_the_commit_point(monkeypatch):
    """The FIN went out, then the commit point fell back to its offset:
    the RTO resends nothing until the commit point passes it again."""
    _net, conn, emitted = _sender(monkeypatch)
    _in_flight(conn, una=QUEUED, nxt=QUEUED)
    conn.send_buffer.commit = QUEUED + 1
    conn.close()
    assert conn.fin_sent
    emitted.clear()
    conn.send_buffer.commit = QUEUED
    conn._on_rto()
    assert emitted == []
    assert conn.rtx_timer.running
    conn.send_buffer.commit = QUEUED + 1
    conn._on_rto()
    assert [segment.flags & TCPFlags.FIN for segment in emitted] == [TCPFlags.FIN]


def test_persist_probe_waits_at_the_commit_point(monkeypatch):
    _net, conn, emitted = _sender(monkeypatch)
    _in_flight(conn, una=COMMIT, nxt=COMMIT)
    conn.rtx_timer.stop()
    conn.peer_window = 0
    conn._on_persist()
    assert _payload(conn, emitted) == []
    assert conn.persist_timer.running
    conn.send_buffer.commit = COMMIT + 1
    conn._on_persist()
    assert _payload(conn, emitted) == [(COMMIT, COMMIT + 1)]
