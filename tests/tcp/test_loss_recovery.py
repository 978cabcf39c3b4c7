"""TCP under loss: retransmission, fast retransmit, RTO behaviour."""


from repro.tcp import TcpOptions, TcpState

from .conftest import Net, start_sink_server


def pump_all(conn, payload):
    sent = {"n": 0}

    def pump():
        while sent["n"] < len(payload):
            accepted = conn.send(payload[sent["n"] : sent["n"] + 8192])
            sent["n"] += accepted
            if accepted == 0:
                break

    conn.on_established = pump
    conn.on_send_space = pump


def test_transfer_survives_random_loss():
    net = Net(seed=3)
    net.server_link.a_to_b.loss_rate = 0.05  # toward the server
    state = start_sink_server(net)
    payload = bytes(i % 256 for i in range(60_000))
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    pump_all(conn, payload)
    net.run(until=120.0)
    assert bytes(state["data"]) == payload
    assert conn.retransmitted_segments > 0


def test_transfer_survives_bidirectional_loss():
    net = Net(seed=11)
    net.server_link.a_to_b.loss_rate = 0.04
    net.server_link.b_to_a.loss_rate = 0.04
    net.client_link.a_to_b.loss_rate = 0.04
    net.client_link.b_to_a.loss_rate = 0.04
    state = start_sink_server(net)
    payload = bytes((i * 7) % 256 for i in range(40_000))
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    pump_all(conn, payload)
    net.run(until=300.0)
    assert bytes(state["data"]) == payload


def test_handshake_survives_syn_loss():
    net = Net(seed=1)
    state = start_sink_server(net)
    # Drop everything for the first 50 ms: the initial SYN dies.
    net.client_link.a_to_b.loss_rate = 1.0
    net.sim.schedule(0.05, net.client_link.set_loss_rate, 0.0)
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    conn.on_established = lambda: conn.send(b"made it")
    net.run(until=30.0)
    assert bytes(state["data"]) == b"made it"
    assert conn.state == TcpState.ESTABLISHED


def test_fast_retransmit_triggers_on_triple_dupack():
    net = Net(seed=9)
    state = start_sink_server(net)
    payload = bytes(i % 256 for i in range(50_000))
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    pump_all(conn, payload)
    # Kill exactly one data packet mid-stream.
    dropped = {"done": False}
    original_transmit = net.client_link.a_to_b.transmit

    def lossy_transmit(packet):
        from repro.netsim.packet import TCPSegment

        if (
            not dropped["done"]
            and isinstance(packet.payload, TCPSegment)
            and packet.payload.data
            and conn.snd_nxt > 20000
        ):
            dropped["done"] = True
            return  # silently dropped
        original_transmit(packet)

    net.client_link.a_to_b.transmit = lossy_transmit
    net.run(until=60.0)
    assert bytes(state["data"]) == payload
    assert conn.congestion.fast_retransmits >= 1
    # Fast retransmit should have avoided an RTO for this single loss.
    assert conn.congestion.timeouts == 0


def test_rto_fires_when_all_acks_lost():
    net = Net(seed=2)
    state = start_sink_server(net)
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    conn.on_established = lambda: conn.send(b"x" * 512)
    # After establishment, kill the return path so ACKs vanish.
    net.sim.schedule(0.006, net.server_link.b_to_a.__setattr__, "loss_rate", 1.0)
    net.sim.schedule(3.0, net.server_link.b_to_a.__setattr__, "loss_rate", 0.0)
    net.run(until=60.0)
    assert conn.congestion.timeouts >= 1
    assert bytes(state["data"]) == b"x" * 512


def test_connection_gives_up_after_max_retries():
    options = TcpOptions(max_retries=3, initial_rto=0.2, max_rto=1.0)
    net = Net(options=options)
    state = start_sink_server(net)
    reasons = []
    conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
    conn.on_closed = reasons.append
    conn.on_established = lambda: conn.send(b"doomed")

    def cut():
        net.client_link.set_up(False)

    net.sim.schedule(0.006, cut)
    net.run(until=120.0)
    assert reasons == ["timeout"]


def test_syn_gives_up_after_max_syn_retries():
    options = TcpOptions(max_syn_retries=2, initial_rto=0.2, max_rto=1.0)
    net = Net(options=options)
    net.client_link.set_up(False)
    reasons = []
    conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
    conn.on_closed = reasons.append
    net.run(until=60.0)
    assert reasons == ["timeout"]


def test_duplicate_data_is_acked_not_redelivered():
    """Retransmissions must not corrupt the app byte stream."""
    net = Net(seed=4)
    net.client_link.a_to_b.loss_rate = 0.15
    state = start_sink_server(net)
    payload = b"abcdefgh" * 2000
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    pump_all(conn, payload)
    net.run(until=300.0)
    assert bytes(state["data"]) == payload
    # The server observed duplicates but deposited each byte once.
    server_conn = state["conns"][0]
    assert server_conn.socket_buffer.total_deposited == len(payload)


def test_backoff_grows_between_retransmissions():
    options = TcpOptions(initial_rto=0.5, min_rto=0.5, max_rto=64.0, max_retries=4)
    net = Net(options=options)
    start_sink_server(net)
    conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
    conn.on_established = lambda: conn.send(b"y" * 100)
    net.sim.schedule(0.006, net.client_link.set_up, False)
    net.run(until=300.0)
    # 4 retries with doubling: RTO path was exercised.
    assert conn.rto.backoff_count >= 3 or conn.state == TcpState.CLOSED


def test_several_losses_in_one_window_recovered_exactly():
    """Data segments 5, 8, 11 and 14 die on the client->router hop: four
    holes in one window, recovered by dupacks, partial ACKs and RTOs."""
    from repro.netsim.packet import TCPSegment

    net = Net(seed=0)
    state = start_sink_server(net)
    payload = bytes(i % 256 for i in range(60_000))
    conn = net.client_tcp.connect(net.server_host.ip, 7)
    pump_all(conn, payload)
    drops = {5, 8, 11, 14}
    counter = {"n": 0}
    original_transmit = net.client_link.a_to_b.transmit

    def lossy_transmit(packet):
        if isinstance(packet.payload, TCPSegment) and packet.payload.data:
            counter["n"] += 1
            if counter["n"] in drops:
                return  # silently dropped
        original_transmit(packet)

    net.client_link.a_to_b.transmit = lossy_transmit
    net.run(until=120.0)
    assert bytes(state["data"]) == payload
    assert conn.retransmitted_segments >= len(drops)
    assert state["conns"][0].socket_buffer.total_deposited == len(payload)
