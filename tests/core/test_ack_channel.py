"""Acknowledgement-channel behaviour, including the paper's explicit
trade-off: lost channel messages cost client retransmissions but never
correctness."""

from dataclasses import replace

from hypothesis import assume, example, given, strategies as st

from repro.core import ACK_CHANNEL_PORT, AckChannelMessage
from repro.netsim import IPAddress

from .conftest import SERVICE_IP, SERVICE_PORT, FtTestbed


def test_message_connection_key():
    msg = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=80,
        client_ip=IPAddress("10.0.0.1"),
        client_port=5555,
        seq_next=100,
        ack=200,
    )
    assert msg.connection_key == (
        IPAddress(SERVICE_IP),
        80,
        IPAddress("10.0.0.1"),
        5555,
    )


def test_unclaimed_messages_counted(testbed):
    endpoint = testbed.nodes[0].ack_endpoint
    sock = testbed.nodes[1].host_server.node.udp_socket()
    bogus = AckChannelMessage(
        service_ip=IPAddress("203.0.113.7"),  # no such service
        service_port=9,
        client_ip=IPAddress("10.0.0.1"),
        client_port=1,
        seq_next=0,
        ack=0,
    )
    sock.send_to(testbed.servers[0].ip, ACK_CHANNEL_PORT, bogus)
    testbed.run_for(1.0)
    assert endpoint.messages_unclaimed == 1


def test_transfer_survives_ack_channel_loss():
    """Paper §4.3: the UDP channel trades overhead against client
    retransmissions when messages are lost — correctness holds."""
    testbed = FtTestbed(n_backups=1, seed=21)
    # Lossy path redirector<->primary hurts the ack channel (backup ->
    # redirector -> primary); make only that direction lossy.
    link = testbed.topo.find_link("redirector", "hs_a")
    link.a_to_b.loss_rate = 0.25
    got = bytearray()
    payload = bytes(i % 256 for i in range(20_000))
    conn = testbed.connect()
    conn.on_data = got.extend
    sent = {"n": 0}

    def pump():
        while sent["n"] < len(payload):
            n = conn.send(payload[sent["n"] : sent["n"] + 4096])
            sent["n"] += n
            if n == 0:
                break

    conn.on_established = pump
    conn.on_send_space = pump
    testbed.run_for(600.0)
    assert bytes(got) == payload


def test_gates_open_monotonically(testbed):
    """Out-of-order or duplicated channel messages never move gates
    backwards."""
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"g" * 5000)
    testbed.run_for(2.0)
    state = list(testbed.primary_handle.ft_port.states.values())[0]
    sent_before = state.members.sent
    deposited_before = state.members.deposited
    assert sent_before > 0
    # Replay an old (stale) message: gates must not regress.
    stale = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=SERVICE_PORT,
        client_ip=conn.local_ip,
        client_port=conn.local_port,
        seq_next=state.conn.iss + 1,  # stream offset 0
        ack=state.conn.irs + 1,
    )
    state.apply(stale, testbed.servers[1].ip)
    assert state.members.sent == sent_before
    assert state.members.deposited == deposited_before


def test_backup_reports_flow_info_for_pure_acks(testbed):
    """Even dataless backup segments (window updates / ACKs) feed the
    channel — that is how deposit progress propagates."""
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"no reply expected")
    testbed.run_for(2.0)
    assert testbed.nodes[1].ack_endpoint.messages_sent >= 1


def test_checksum_self_computes_and_validates():
    msg = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=80,
        client_ip=IPAddress("10.0.0.1"),
        client_port=5555,
        seq_next=100,
        ack=200,
        epoch=3,
    )
    assert msg.checksum is not None
    assert msg.checksum_valid()
    # A corrupted-in-flight copy keeps the now-stale checksum.
    bad = replace(msg, ack=(msg.ack + (1 << 16)) & 0xFFFFFFFF)
    assert not bad.checksum_valid()
    # Re-checksummed (a *lying sender*, not wire corruption): validates.
    relied = replace(msg, ack=(msg.ack + (1 << 16)) & 0xFFFFFFFF, checksum=None)
    assert relied.checksum_valid()


CHECKSUMMED = ("service_ip", "service_port", "client_ip", "client_port", "seq_next", "ack", "epoch")
#: Field values as callers may pass them: negative (an unset epoch) or
#: wider than the 32 bits the checksum covers.
ANY_INT = st.integers(min_value=-(1 << 40), max_value=1 << 40)


@given(
    values=st.tuples(*[ANY_INT] * len(CHECKSUMMED)),
    field=st.sampled_from(CHECKSUMMED),
    new=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
@example(values=(1 << 33, 80, 1, 5555, (1 << 32) + 7, 200, -1), field="epoch", new=0)
@example(values=(0, 80, 1, 5555, 100, 200, -3), field="seq_next", new=(1 << 32) - 1)
def test_checksum_catches_any_change_to_one_field(values, field, new):
    msg = AckChannelMessage(*values)
    assert msg.checksum_valid()
    # A different 32-bit value: the checksum covers truncations only.
    assume(new != getattr(msg, field) & 0xFFFFFFFF)
    corrupted = replace(msg, **{field: new})
    assert not corrupted.checksum_valid()
    # ``checksum=None`` recomputes: the changed message validates.
    assert replace(corrupted, checksum=None).checksum_valid()


def test_corrupt_messages_dropped_before_dispatch(testbed):
    """A report whose checksum does not cover its fields is dropped at
    the endpoint — neither the connection state nor the monitors ever
    see the bogus watermarks."""
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"c" * 5000)
    testbed.run_for(2.0)
    endpoint = testbed.nodes[0].ack_endpoint
    state = list(testbed.primary_handle.ft_port.states.values())[0]
    sent_before = state.members.sent
    good = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=SERVICE_PORT,
        client_ip=conn.local_ip,
        client_port=conn.local_port,
        seq_next=(state.conn.iss + 1 + sent_before + (1 << 16)) & 0xFFFFFFFF,
        ack=state.conn.irs + 1,
    )
    corrupt = replace(good, ack=(good.ack + (1 << 16)) & 0xFFFFFFFF)
    assert not corrupt.checksum_valid()
    endpoint._dispatch(corrupt, testbed.servers[1].ip)
    assert endpoint.messages_corrupt_dropped == 1
    assert state.members.sent == sent_before


def test_stale_epoch_reports_dropped(testbed):
    """A progress report stamped with an older configuration epoch than
    the sender's freshest is stale-view traffic and never applied."""
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"e" * 5000)
    testbed.run_for(2.0)
    port = testbed.primary_handle.ft_port
    state = list(port.states.values())[0]
    sender = testbed.servers[1].ip
    fresh = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=SERVICE_PORT,
        client_ip=conn.local_ip,
        client_port=conn.local_port,
        seq_next=state.conn.iss + 1,
        ack=state.conn.irs + 1,
        epoch=5,
    )
    state.apply(fresh, sender)
    dropped_before = port.stale_epoch_dropped
    stale = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=SERVICE_PORT,
        client_ip=conn.local_ip,
        client_port=conn.local_port,
        seq_next=state.conn.iss + 1,
        ack=state.conn.irs + 1,
        epoch=3,
    )
    state.apply(stale, sender)
    assert port.stale_epoch_dropped == dropped_before + 1
    # A *new* successor starts a fresh epoch history: not stale.
    state.apply(stale, testbed.servers[0].ip)
    assert port.stale_epoch_dropped == dropped_before + 1


def test_implausible_progress_claim_rejected(testbed):
    """A syntactically valid, correctly checksummed report claiming
    progress the client cannot possibly have produced is rejected and
    counted as lying evidence (the watermarks stay put)."""
    conn = testbed.connect()
    conn.on_established = lambda: conn.send(b"p" * 5000)
    testbed.run_for(2.0)
    port = testbed.primary_handle.ft_port
    state = list(port.states.values())[0]
    deposited_before = state.members.deposited
    lie = AckChannelMessage(
        service_ip=IPAddress(SERVICE_IP),
        service_port=SERVICE_PORT,
        client_ip=conn.local_ip,
        client_port=conn.local_port,
        seq_next=state.conn.iss + 1,
        ack=(state.conn.irs + 1 + 50_000_000) & 0xFFFFFFFF,  # impossible
    )
    assert lie.checksum_valid()
    state.apply(lie, testbed.servers[1].ip)
    assert port.implausible_reports == 1
    assert state.members.deposited == deposited_before


def test_congestion_shutdown_of_responsive_replica():
    """A replica that answers pings but keeps getting reported is shut
    down by the congestion rule and goes silent (fail-stop)."""
    testbed = FtTestbed(n_backups=1, seed=3)
    testbed.run_for(1.0)
    backup_port = testbed.backup_handles[0].ft_port
    for _ in range(3):
        testbed.nodes[0].daemon.report_failure(
            SERVICE_IP, SERVICE_PORT, suspects=[testbed.servers[1].ip]
        )
        testbed.run_for(2.0)
    assert backup_port.shut_down
    entry = testbed.redirector.entry_for(SERVICE_IP, SERVICE_PORT)
    assert entry.replicas == [testbed.servers[0].ip]
    # And the no-longer-gated primary keeps serving clients.
    got = bytearray()
    conn = testbed.connect()
    conn.on_data = got.extend
    conn.on_established = lambda: conn.send(b"still here")
    testbed.run_for(10.0)
    assert bytes(got) == b"still here"
