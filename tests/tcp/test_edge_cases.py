"""TCP edge cases: simultaneous close, half-close, TIME_WAIT,
reordering, tiny windows, wrapping sequence numbers."""


from repro.tcp import TcpConnection, TcpOptions, TcpState

from .conftest import Net, start_sink_server


class TestSimultaneousClose:
    def test_both_sides_close_at_once(self, net):
        state = start_sink_server(net)
        conn = net.client_tcp.connect(net.server_host.ip, 7)

        def close_both():
            # Close both ends in the same instant (the server side
            # reaches ESTABLISHED one RTT after the client, so wait a
            # beat before the simultaneous close).
            server_conn = state["conns"][0]
            conn.close()
            server_conn.close()

        conn.on_established = lambda: net.sim.schedule(0.1, close_both)
        net.run(until=60.0)
        assert conn.state == TcpState.CLOSED
        assert not net.client_tcp.connections
        assert not net.server_tcp.connections


class TestHalfClose:
    def test_data_flows_after_remote_fin(self, net):
        """Client closes its direction; server can keep sending."""
        listener = net.server_tcp.listen(7)
        server_conns = []

        def accept(conn):
            server_conns.append(conn)

            def on_remote_close():
                # Client finished talking; reply with data, then close.
                conn.send(b"late reply after half-close")
                conn.close()

            conn.on_remote_close = on_remote_close
            conn.on_data = lambda data: None

        listener.on_accept = accept
        got = bytearray()
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        conn.on_data = got.extend
        conn.on_established = lambda: (conn.send(b"request"), conn.close())
        net.run(until=60.0)
        assert bytes(got) == b"late reply after half-close"
        assert conn.state == TcpState.CLOSED


class TestTimeWait:
    def test_time_wait_duration_is_2msl(self):
        options = TcpOptions(msl=1.0)
        net = Net(options=options)
        start_sink_server(net)
        closed_at = []
        conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
        conn.on_established = conn.close
        conn.on_closed = lambda reason: closed_at.append(net.sim.now)
        net.run(until=60.0)
        assert closed_at
        assert closed_at[0] >= 2.0  # at least 2*MSL after the handshake

    def test_retransmitted_fin_in_time_wait_reacked(self, net, monkeypatch):
        state = start_sink_server(net)
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        conn.on_established = conn.close
        net.run(until=1.0)
        assert conn.state == TcpState.TIME_WAIT
        server_conn_gone = not net.server_tcp.connections
        assert server_conn_gone  # server fully closed already
        # Re-deliver a FIN (as if the server's FIN was duplicated).
        from repro.netsim.packet import TCPFlags, TCPSegment
        from repro.tcp.seqnum import seq_add

        # Spied through the class: the connection has ``__slots__``, so
        # a method cannot be shadowed on the instance.
        acked = []
        original = TcpConnection._send_ack_now

        def spy(self):
            if self is conn:
                acked.append(net.sim.now)
            original(self)

        monkeypatch.setattr(TcpConnection, "_send_ack_now", spy)
        dup_fin = TCPSegment(
            src_port=7,
            dst_port=conn.local_port,
            seq=seq_add(conn.irs, 1 + conn.ack_point),  # the FIN position again
            ack=conn._seq_for(conn.snd_nxt),
            flags=TCPFlags.FIN | TCPFlags.ACK,
            window=65535,
        )
        conn.segment_arrived(dup_fin)
        assert acked  # re-ACKed, still in TIME_WAIT
        assert conn.state == TcpState.TIME_WAIT


class TestReordering:
    def test_reordered_segments_reassemble(self):
        """Deliver segments through two paths with different latencies —
        heavy reordering — and the stream stays exact."""
        net = Net(seed=6)
        # Jitter: make the client->router channel occasionally slow by
        # replacing transmit with a delayed variant for every 3rd packet.
        channel = net.client_link.a_to_b
        original = channel.transmit
        counter = {"n": 0}

        def jittery(packet):
            counter["n"] += 1
            if counter["n"] % 3 == 0:
                net.sim.schedule(0.02, original, packet)
            else:
                original(packet)

        channel.transmit = jittery
        state = start_sink_server(net)
        payload = bytes(i % 256 for i in range(40_000))
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        sent = {"n": 0}

        def pump():
            while sent["n"] < len(payload):
                n = conn.send(payload[sent["n"] : sent["n"] + 4096])
                sent["n"] += n
                if n == 0:
                    break

        conn.on_established = pump
        conn.on_send_space = pump
        net.run(until=120.0)
        assert bytes(state["data"]) == payload


class TestTinyWindow:
    def test_one_byte_receive_buffer_still_works(self):
        options = TcpOptions(recv_buffer_size=1, delayed_ack=False)
        net = Net(options=options)
        listener = net.server_tcp.listen(7)
        received = bytearray()

        def accept(conn):
            conn.on_data = received.extend

        listener.on_accept = accept
        conn = net.client_tcp.connect(net.server_host.ip, 7, options=options)
        conn.on_established = lambda: conn.send(b"slow")
        net.run(until=120.0)
        assert bytes(received) == b"slow"


class TestSequenceWrap:
    def test_transfer_across_seq_wraparound(self):
        """Force an ISS near 2**32 so sequence numbers wrap mid-stream."""
        net = Net()
        listener = net.server_tcp.listen(7)
        received = bytearray()
        listener.on_accept = lambda conn: setattr(conn, "on_data", received.extend)
        # Monkeypatch the client stack's ISS generator.
        net.client_tcp.default_iss = lambda *args: (2**32) - 5000
        payload = bytes(i % 256 for i in range(50_000))
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        assert conn.iss == (2**32) - 5000
        sent = {"n": 0}

        def pump():
            while sent["n"] < len(payload):
                n = conn.send(payload[sent["n"] : sent["n"] + 8192])
                sent["n"] += n
                if n == 0:
                    break

        conn.on_established = pump
        conn.on_send_space = pump
        net.run(until=60.0)
        assert bytes(received) == payload

    def test_wrap_with_loss(self):
        net = Net(seed=13)
        net.client_link.a_to_b.loss_rate = 0.05
        listener = net.server_tcp.listen(7)
        received = bytearray()
        listener.on_accept = lambda conn: setattr(conn, "on_data", received.extend)
        net.client_tcp.default_iss = lambda *args: (2**32) - 3000
        payload = bytes((i * 3) % 256 for i in range(30_000))
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        sent = {"n": 0}

        def pump():
            while sent["n"] < len(payload):
                n = conn.send(payload[sent["n"] : sent["n"] + 4096])
                sent["n"] += n
                if n == 0:
                    break

        conn.on_established = pump
        conn.on_send_space = pump
        net.run(until=300.0)
        assert bytes(received) == payload


class TestZeroAndEmpty:
    def test_empty_send_is_noop(self, net):
        start_sink_server(net)
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        done = []
        conn.on_established = lambda: done.append(conn.send(b""))
        net.run(until=5.0)
        assert done == [0]
        assert conn.state == TcpState.ESTABLISHED

    def test_close_without_data(self, net):
        start_sink_server(net)
        conn = net.client_tcp.connect(net.server_host.ip, 7)
        conn.on_established = conn.close
        net.run(until=60.0)
        assert conn.state == TcpState.CLOSED
        assert not net.server_tcp.connections
