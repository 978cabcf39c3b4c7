"""HydraNet-FT basics: replicated connections, suppression, gating."""

import pytest

from repro.core import PortMode
from repro.tcp import TcpState

from .conftest import SERVICE_IP, SERVICE_PORT


def test_chain_setup_after_registration(testbed):
    primary = testbed.primary_handle.ft_port
    backup = testbed.backup_handles[0].ft_port
    assert primary.is_primary
    assert primary.has_successor
    assert primary.predecessor_ip is None
    assert not backup.is_primary
    assert not backup.has_successor  # single backup is last in chain
    assert backup.predecessor_ip == testbed.servers[0].ip


def test_client_establishes_through_ft_service(testbed):
    conn = testbed.connect()
    established = []
    conn.on_established = lambda: established.append(testbed.sim.now)
    testbed.run_for(5.0)
    assert conn.state == TcpState.ESTABLISHED
    assert established


def test_all_replicas_establish(testbed):
    conn = testbed.connect()
    testbed.run_for(5.0)
    for i in range(2):
        server_conn = testbed.server_conn(i)
        assert server_conn is not None
        assert server_conn.state == TcpState.ESTABLISHED


def test_only_primary_talks_to_client(testbed):
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"hello replicas")
    testbed.run_for(5.0)
    backup_conn = testbed.server_conn(1)
    assert backup_conn.segments_sent > 0
    assert backup_conn.suppressed_segments == backup_conn.segments_sent


def test_echo_round_trip_through_ft(testbed):
    got = bytearray()
    conn = testbed.connect()
    conn.on_data = got.extend
    conn.on_established = lambda: conn.send(b"ping")
    testbed.run_for(5.0)
    assert bytes(got) == b"ping"


def test_both_replicas_deposit_identical_streams(testbed):
    payload = bytes(i % 256 for i in range(30_000))
    conn = testbed.connect()
    sent = {"n": 0}

    def pump():
        while sent["n"] < len(payload):
            n = conn.send(payload[sent["n"] : sent["n"] + 8192])
            sent["n"] += n
            if n == 0:
                break

    conn.on_established = pump
    conn.on_send_space = pump
    testbed.run_for(60.0)
    for i in range(2):
        server_conn = testbed.server_conn(i)
        assert server_conn.socket_buffer.total_deposited == len(payload)


def test_ack_channel_carries_messages(testbed):
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"x" * 5000)
    testbed.run_for(5.0)
    backup_endpoint = testbed.nodes[1].ack_endpoint
    primary_endpoint = testbed.nodes[0].ack_endpoint
    assert backup_endpoint.messages_sent > 0
    assert primary_endpoint.messages_received > 0


def test_primary_never_deposits_ahead_of_backup(testbed):
    """Atomicity invariant (paper §4.3): S_i deposits byte k only after
    S_{i+1} has."""
    violations = []
    conn = testbed.connect()

    primary_conn = {}
    backup_conn = {}

    def check():
        if 0 not in primary_conn:
            pc = testbed.server_conn(0)
            bc = testbed.server_conn(1)
            if pc is None or bc is None:
                testbed.sim.schedule(0.001, check)
                return
            primary_conn[0] = pc
            backup_conn[0] = bc
        p = primary_conn[0].ack_point
        b = backup_conn[0].ack_point
        if p > b:
            violations.append((testbed.sim.now, p, b))
        if testbed.sim.now < 10.0:
            testbed.sim.schedule(0.0005, check)

    conn.on_established = lambda: conn.send(b"d" * 20000)
    testbed.sim.schedule(0.001, check)
    testbed.run_for(12.0)
    assert violations == []


def test_primary_never_sends_response_ahead_of_backup(testbed):
    """Output-ordering invariant: primary sends response byte k only
    after the backup reported sequence >= k."""
    violations = []
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"e" * 8000)

    state = {}

    def check():
        if "p" not in state:
            pc, bc = testbed.server_conn(0), testbed.server_conn(1)
            if pc is None or bc is None:
                testbed.sim.schedule(0.001, check)
                return
            state["p"], state["b"] = pc, bc
        if state["p"].snd_nxt > state["b"].snd_nxt:
            violations.append((testbed.sim.now, state["p"].snd_nxt, state["b"].snd_nxt))
        if testbed.sim.now < 10.0:
            testbed.sim.schedule(0.0005, check)

    testbed.sim.schedule(0.001, check)
    testbed.run_for(12.0)
    assert violations == []


def test_client_ack_only_after_all_deposited(testbed):
    """The client's data is acknowledged only once every replica has
    deposited it (many-to-one atomicity)."""
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"atomic!")
    violations = []

    def check():
        bc = testbed.server_conn(1)
        if bc is not None and conn.snd_una > 0:
            if bc.socket_buffer.total_deposited < conn.snd_una:
                violations.append(testbed.sim.now)
        if testbed.sim.now < 5.0:
            testbed.sim.schedule(0.0005, check)

    testbed.sim.schedule(0.001, check)
    testbed.run_for(6.0)
    assert conn.snd_una == 7
    assert violations == []


def test_graceful_close_through_ft(testbed):
    closed = []
    conn = testbed.connect()
    conn.on_established = lambda: (conn.send(b"done"), conn.close())
    conn.on_closed = closed.append
    testbed.run_for(30.0)
    assert closed == ["closed"]


def test_two_backups_chain(testbed2):
    ports = [testbed2.ft_port(i) for i in range(3)]
    assert ports[0].is_primary and ports[0].has_successor
    assert not ports[1].is_primary and ports[1].has_successor
    assert ports[1].predecessor_ip == testbed2.servers[0].ip
    assert not ports[2].has_successor
    assert ports[2].predecessor_ip == testbed2.servers[1].ip


def test_two_backups_transfer_and_deposit_order(testbed2):
    payload = b"chain-order" * 1000
    got = bytearray()
    conn = testbed2.connect()
    conn.on_data = got.extend
    conn.on_established = lambda: conn.send(payload)
    testbed2.run_for(30.0)
    assert bytes(got) == payload
    deposits = [testbed2.server_conn(i).socket_buffer.total_deposited for i in range(3)]
    assert deposits == [len(payload)] * 3


def test_multiple_client_connections(testbed):
    conns = []
    results = {}
    for i in range(3):
        conn = testbed.connect()
        results[i] = bytearray()
        conn.on_data = results[i].extend
        payload = f"conn-{i}".encode()
        conn.on_established = (lambda c, p: lambda: c.send(p))(conn, payload)
        conns.append(conn)
    testbed.run_for(10.0)
    for i in range(3):
        assert bytes(results[i]) == f"conn-{i}".encode()


def test_duplicate_replicated_bind_rejected(testbed):
    from repro.core import DetectorParams, FtError

    with pytest.raises(FtError):
        testbed.nodes[0].stack.listen_replicated(
            SERVICE_IP,
            SERVICE_PORT,
            PortMode.PRIMARY,
            DetectorParams(),
            "chain",
            lambda conn: None,
            None,
            False,
            False,
            lambda port: None,
        )
