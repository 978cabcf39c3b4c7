"""What a TCP / ft-TCP connection costs to hold (DESIGN.md §18).

Two kinds of test.  The footprint test opens echo connections through a
1-backup replicated service and, once every end is ESTABLISHED, holds
the bytes and the GC-tracked objects per ``TcpConnection`` to a budget
about 10 % above what they cost when the budget was set (2 169 B and
17.9 objects on CPython 3.11; the eager layout before it cost 6 565 B
and 38.5).  The behaviour tests pin *when* each piece a short
connection never needs comes into being: not before its first use, and
exactly then.  The retention tests hold the client stream to its
consumers (DESIGN.md §8): replicas nobody can join from keep none of
it, armed ones keep it once.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.apps.echo import echo_server_factory
from repro.experiments.testbeds import build_primary_backup
from repro.invariants import attach_invariants
from repro.netsim.packet import TCPFlags, TCPSegment
from repro.netsim.simulator import Timer
from repro.recovery import RecoveryManager
from repro.tcp import TcpOptions, TcpState
from repro.tcp.buffers import UNGATED
from repro.tcp.seqnum import seq_add
from repro.tcp.tcb import _UNSTARTED

from ..core.conftest import FtTestbed
from .conftest import Net, start_sink_server

CONNECTIONS = 120
#: Per TcpConnection (client, primary and backup end alike), with the
#: ft state, echo session and scheduler entries that come with it.
BYTES_BUDGET = 2400
OBJECTS_BUDGET = 19.6


def test_established_connection_footprint_within_budget():
    tb = FtTestbed(n_backups=1, factory=echo_server_factory)
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        bytes_before = tracemalloc.get_traced_memory()[0]
        clients = []
        for _ in range(CONNECTIONS):
            clients.append(tb.connect())
            tb.run_for(0.002)
        tb.run_for(0.5)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - bytes_before
    finally:
        tracemalloc.stop()
    objects = len(gc.get_objects()) - objects_before
    replicas = [s.conn for i in (0, 1) for s in tb.ft_port(i).states.values()]
    assert len(replicas) == 2 * CONNECTIONS
    assert all(c.state is TcpState.ESTABLISHED for c in clients + replicas)
    ends = 3 * CONNECTIONS
    assert grown / ends <= BYTES_BUDGET
    assert objects / ends <= OBJECTS_BUDGET


# -- each lazily created piece appears at its first use, not before -----------


def _established_pair(options=None):
    net = Net(options=options)
    state = start_sink_server(net)
    conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
    net.run(until=0.5)
    assert conn.state is TcpState.ESTABLISHED
    return net, conn, state["conns"][0]


def test_established_connection_holds_no_lazy_piece():
    _net, client, server = _established_pair()
    for conn in (client, server):
        assert conn.ack_timer is _UNSTARTED
        assert conn.persist_timer is _UNSTARTED
        assert conn.time_wait_timer is _UNSTARTED
        assert conn.reassembler._queue is None
        assert conn.reassembler._fragments is None
        assert conn.socket_buffer._queue is None
    assert not _UNSTARTED.running  # the shared stand-in never runs


def test_delayed_ack_timer_created_by_first_delayed_ack():
    net, client, server = _established_pair()
    client.send(b"x" * 100)
    net.run(until=0.55)
    assert isinstance(server.ack_timer, Timer) and server.ack_timer.running
    assert client.ack_timer is _UNSTARTED  # a pure sender never delays an ACK


def test_persist_timer_created_by_zero_window():
    options = TcpOptions(recv_buffer_size=2000, persist_min=0.2)
    net = Net(options=options)
    listener = net.server_tcp.listen(7)
    listener.on_accept = lambda c: setattr(c, "on_data", None)  # never reads
    conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
    net.run(until=0.5)
    assert conn.persist_timer is _UNSTARTED
    conn.send(b"p" * 6000)
    net.run(until=2.0)
    assert conn.peer_window == 0
    assert isinstance(conn.persist_timer, Timer) and conn.persist_timer.running


def test_time_wait_timer_created_by_active_close_and_given_back():
    options = TcpOptions(msl=1.0)
    net, client, server = _established_pair(options)
    client.close()
    net.run(until=1.0)
    assert client.state is TcpState.TIME_WAIT
    assert isinstance(client.time_wait_timer, Timer) and client.time_wait_timer.running
    assert server.state is TcpState.CLOSED
    assert server.time_wait_timer is _UNSTARTED  # the passive closer never waits
    net.run(until=5.0)
    assert client.state is TcpState.CLOSED
    assert client.time_wait_timer is _UNSTARTED and client.ack_timer is _UNSTARTED


def _data_segment(client, server, offset, data):
    return TCPSegment(
        src_port=client.local_port,
        dst_port=server.local_port,
        seq=seq_add(client.iss, 1 + offset),
        ack=seq_add(server.iss, 1),
        flags=TCPFlags.ACK | TCPFlags.PSH,
        window=65535,
        data=data,
    )


def test_in_order_transfer_never_creates_a_queue():
    net, client, server = _established_pair()
    client.send(b"d" * 20_000)
    net.run(until=5.0)
    assert server.bytes_received == 20_000
    assert server.reassembler._queue is None
    assert server.reassembler._fragments is None
    assert server.socket_buffer._queue is None


def test_staged_queue_created_by_gated_deposit():
    _net, client, server = _established_pair()
    server.reassembler.ceiling = 0  # the gate holds everything
    server.segment_arrived(_data_segment(client, server, 0, b"a" * 100))
    assert server.reassembler._queue is None  # one held chunk needs no queue
    server.segment_arrived(_data_segment(client, server, 100, b"b" * 100))
    assert list(server.reassembler._queue) == [b"b" * 100]
    server.reassembler.ceiling = UNGATED
    server.gates_changed()
    assert server.socket_buffer.total_deposited == 200
    assert server.reassembler.staged_bytes == 0


def test_fragment_map_created_by_out_of_order_arrival():
    _net, client, server = _established_pair()
    server.segment_arrived(_data_segment(client, server, 100, b"b" * 100))
    assert server.reassembler._fragments == {100: b"b" * 100}
    assert server.reassembler.out_of_order_ranges() == [(100, 200)]
    server.segment_arrived(_data_segment(client, server, 0, b"a" * 100))
    assert server.socket_buffer.total_deposited == 200


def test_socket_buffer_queue_created_when_the_reader_lags():
    _net, client, server = _established_pair()
    server.on_data = None  # the application reads with recv(), later
    server.segment_arrived(_data_segment(client, server, 0, b"a" * 100))
    assert server.socket_buffer._queue is None
    server.segment_arrived(_data_segment(client, server, 100, b"b" * 100))
    assert list(server.socket_buffer._queue) == [b"b" * 100]
    assert server.recv(150) == b"a" * 100 + b"b" * 50
    assert server.recv() == b"b" * 50


def test_catchup_chunks_created_by_first_deposit_and_by_live_join():
    tb = FtTestbed(n_backups=1, n_spares=1, factory=echo_server_factory)
    idle = tb.connect()
    busy = tb.connect()
    tb.run_for(1.0)
    payload = bytes(range(256)) * 8
    busy.send(payload)
    tb.run_for(2.0)

    def logs(port):
        by_port = {key[1]: state.catchup_log for key, state in port.states.items()}
        return by_port[idle.local_port], by_port[busy.local_port]

    for replica in (0, 1):
        idle_log, busy_log = logs(tb.ft_port(replica))
        assert idle_log._buf is None and idle_log.size == 0
        assert busy_log.contents() == payload
    # Live join: the joiner replays the donor's log and so rebuilds its own.
    joiner_port = tb.service.provision_joiner(tb.spare_nodes[0]).ft_port
    tb.ft_port(1).begin_catchup_feed(tb.spare_nodes[0].ip)
    tb.run_for(1.0)
    idle_log, busy_log = logs(joiner_port)
    assert idle_log._buf is None and idle_log.contents() == b""
    assert busy_log.contents() == payload


# -- the client stream is kept where something can consume it, and once -------


def _held_after_ttcp(run, buflen, nbuf):
    """Traced bytes the whole system still holds once the client has its
    last ACK, and each replica's catch-up log."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run.run(buflen, nbuf=nbuf, timeout=60.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.completed
    ports = [handle.ft_port for handle in run.owned[0].service.replicas]
    logs = [state.catchup_log for port in ports for state in port.states.values()]
    assert len(logs) == 3
    return held, logs


@pytest.mark.parametrize("strategy", ["chain", "broadcast"])
def test_replicas_nobody_can_join_from_keep_no_client_stream(strategy):
    with build_primary_backup(n_backups=2, strategy=strategy) as run:
        held, logs = _held_after_ttcp(run, buflen=1024, nbuf=1024)
        assert held < 64 * 1024  # one retained copy alone would be 1 MiB
        assert all(log.truncated and log.size == 0 for log in logs)


@pytest.mark.parametrize("strategy", ["chain", "broadcast"])
def test_armed_monitors_keep_no_client_stream(strategy):
    """The stream-integrity monitor checks every replica's deposits
    against chunk digests and the one chunk still open, not against a
    copy of the stream (DESIGN.md §11.1)."""
    with build_primary_backup(n_backups=2, strategy=strategy) as run:
        invset = attach_invariants(run.owned[0])
        held, logs = _held_after_ttcp(run, buflen=1024, nbuf=1024)
        assert held < 64 * 1024  # a copy of the stream alone would be 1 MiB
        assert invset.violations == [] and invset.stats["deposits"] > 0
        ((length, _sha),) = invset.stream_integrity.digest().values()
        assert length == 1024 * 1024


@pytest.mark.parametrize("strategy, managed", [("chain", True), ("checkpoint", False)])
def test_armed_replicas_keep_the_client_stream_once(strategy, managed):
    """A recovery manager arms retention; the checkpoint backend reads
    the log itself and retains without one.  64-byte writes: one object
    per deposit would cost 1.6 x the stream."""
    buflen, nbuf = 64, 4096
    stream = bytes(range(buflen)) * nbuf
    with build_primary_backup(n_backups=2, strategy=strategy) as run:
        system = run.owned[0]
        if managed:
            RecoveryManager(system.service, system.redirector_daemon)
        held, logs = _held_after_ttcp(run, buflen, nbuf)
        assert all(log.contents() == stream for log in logs)
        assert held <= 3 * 1.15 * len(stream) + 64 * 1024
