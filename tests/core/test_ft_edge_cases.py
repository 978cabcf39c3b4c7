"""FT edge cases: message buffering, concurrent services, wrapping
sequence numbers, state pruning, and gating rules for late joiners."""


from repro.core import AckChannelMessage, DetectorParams, ReplicatedTcpService
from repro.tcp import TcpState

from .conftest import SERVICE_IP, SERVICE_PORT, FtTestbed, echo_factory


class TestPendingMessages:
    def test_message_before_connection_is_buffered_and_applied(self, testbed):
        """An ack-channel message racing ahead of the local SYN must be
        buffered and applied once the connection exists."""
        ft_port = testbed.primary_handle.ft_port
        from repro.netsim import IPAddress
        from repro.tcp.stack import deterministic_iss

        client_ip = testbed.client.ip
        client_port = 45000
        iss = deterministic_iss(
            IPAddress(SERVICE_IP), SERVICE_PORT, client_ip, client_port
        )
        message = AckChannelMessage(
            service_ip=IPAddress(SERVICE_IP),
            service_port=SERVICE_PORT,
            client_ip=client_ip,
            client_port=client_port,
            seq_next=(iss + 1 + 500) % 2**32,
            ack=0,
        )
        ft_port._on_ack_channel(message, testbed.servers[1].ip)
        assert (client_ip, client_port) in ft_port._pending_msgs

    def test_pending_buffer_bounded(self, testbed):
        from repro.netsim import IPAddress

        ft_port = testbed.primary_handle.ft_port
        for i in range(40):
            message = AckChannelMessage(
                service_ip=IPAddress(SERVICE_IP),
                service_port=SERVICE_PORT,
                client_ip=testbed.client.ip,
                client_port=40000,
                seq_next=i,
                ack=0,
            )
            ft_port._on_ack_channel(message, testbed.servers[1].ip)
        assert len(ft_port._pending_msgs[(testbed.client.ip, 40000)]) <= 16


class TestConcurrentServices:
    def test_two_ft_services_on_same_nodes(self):
        testbed = FtTestbed(n_backups=1)
        second = ReplicatedTcpService(
            "198.51.100.9",
            80,
            echo_factory,
            detector=DetectorParams(threshold=4),
        )
        testbed.topo.add_external_network("198.51.100.9/32", testbed.redirector)
        testbed.topo.build_routes()
        second.add_primary(testbed.nodes[0])
        second.add_backup(testbed.nodes[1])
        testbed.run_for(2.0)
        results = {}
        for ip, port, payload in (
            (SERVICE_IP, SERVICE_PORT, b"service one"),
            ("198.51.100.9", 80, b"service two"),
        ):
            got = bytearray()
            conn = testbed.client_node.connect(ip, port)
            conn.on_data = got.extend
            conn.on_established = (lambda c, p: lambda: c.send(p))(conn, payload)
            results[ip] = got
        testbed.run_for(10.0)
        assert bytes(results[SERVICE_IP]) == b"service one"
        assert bytes(results["198.51.100.9"]) == b"service two"

    def test_failover_of_one_service_leaves_other_alone(self):
        """Crash hits the host, so BOTH services on it fail over — but
        independently, and both keep serving."""
        testbed = FtTestbed(n_backups=1)
        second = ReplicatedTcpService(
            "198.51.100.9", 80, echo_factory, detector=DetectorParams(threshold=3, cooldown=1.0)
        )
        testbed.topo.add_external_network("198.51.100.9/32", testbed.redirector)
        testbed.topo.build_routes()
        # Opposite roles: hs_a primary for service 1, hs_b primary for 2.
        second.add_primary(testbed.nodes[1])
        second.add_backup(testbed.nodes[0])
        testbed.run_for(2.0)
        got1 = bytearray()
        conn1 = testbed.client_node.connect(SERVICE_IP, SERVICE_PORT)
        conn1.on_data = got1.extend
        payload = bytes(i % 256 for i in range(40_000))
        sent = {"n": 0}

        def pump():
            while sent["n"] < len(payload):
                n = conn1.send(payload[sent["n"] : sent["n"] + 2048])
                sent["n"] += n
                if n == 0:
                    return

        conn1.on_established = pump
        conn1.on_send_space = pump
        testbed.run_for(0.05)
        testbed.servers[0].crash()  # primary of service 1, backup of 2
        testbed.run_for(120.0)
        assert bytes(got1) == payload
        # Service 2's primary (hs_b) was never disturbed.
        assert second.replicas[0].ft_port.is_primary
        got2 = bytearray()
        conn2 = testbed.client_node.connect("198.51.100.9", 80)
        conn2.on_data = got2.extend
        conn2.on_established = lambda: conn2.send(b"still fine")
        testbed.run_for(10.0)
        assert bytes(got2) == b"still fine"


class TestSequenceWrapReplicated:
    def test_ft_transfer_across_seq_wrap(self):
        """Replica gating arithmetic survives 32-bit wraparound."""
        testbed = FtTestbed(n_backups=1)
        wrap_iss = lambda *args: (2**32) - 4000
        for handle in (testbed.primary_handle, *testbed.backup_handles):
            handle.ft_port.listener.iss_policy = wrap_iss
        testbed.client_node.tcp.default_iss = lambda *args: (2**32) - 2000
        got = bytearray()
        conn = testbed.connect()
        conn.on_data = got.extend
        payload = bytes(i % 256 for i in range(30_000))
        sent = {"n": 0}

        def pump():
            while sent["n"] < len(payload):
                n = conn.send(payload[sent["n"] : sent["n"] + 4096])
                sent["n"] += n
                if n == 0:
                    return

        conn.on_established = pump
        conn.on_send_space = pump
        testbed.run_for(60.0)
        assert bytes(got) == payload
        for i in range(2):
            assert testbed.server_conn(i).socket_buffer.total_deposited == len(payload)


class TestLateJoiner:
    def test_existing_connections_do_not_gate_on_new_backup(self, testbed):
        """DESIGN.md §5b rule 5: a backup added mid-connection must not
        stall connections it has no state for."""
        # Tear the backup out, leaving a lone ungated primary.
        testbed.service.remove_replica(testbed.backup_handles[0])
        testbed.run_for(5.0)
        got = bytearray()
        conn = testbed.connect()
        conn.on_data = got.extend
        conn.on_established = lambda: conn.send(b"before the joiner")
        testbed.run_for(5.0)
        assert bytes(got) == b"before the joiner"
        # A fresh backup joins mid-connection.
        rejoined = testbed.service.recommission(testbed.backup_handles[0])
        testbed.run_for(5.0)
        assert testbed.primary_handle.ft_port.has_successor
        # The old connection keeps flowing ungated...
        conn.send(b" and after")
        testbed.run_for(5.0)
        assert bytes(got) == b"before the joiner and after"
        state = list(testbed.primary_handle.ft_port.states.values())[0]
        assert not state.gated
        # ...while a new connection is fully replicated and gated.
        got2 = bytearray()
        conn2 = testbed.connect()
        conn2.on_data = got2.extend
        conn2.on_established = lambda: conn2.send(b"fresh")
        testbed.run_for(5.0)
        assert bytes(got2) == b"fresh"
        new_states = [
            s
            for s in testbed.primary_handle.ft_port.states.values()
            if s.conn.remote_port == conn2.local_port
        ]
        assert new_states and new_states[0].gated


class TestStatePruning:
    def test_closed_states_pruned(self, testbed):
        ft_port = testbed.primary_handle.ft_port
        # Fabricate many closed connections' states.
        from repro.core.ft_tcp import FtConnectionState

        class FakeConn:
            state = TcpState.CLOSED
            irs = None
            remote_ip = None
            remote_port = 0

            def dispose(self):  # a pruned state's connection is disposed
                pass

        for i in range(300):
            ft_port.states[(testbed.client.ip, 10_000 + i)] = FtConnectionState(
                ft_port, FakeConn(), gated=False
            )
        ft_port._prune_states()
        assert len(ft_port.states) < 300

    def test_table_rebuilt_only_when_it_has_doubled(self, monkeypatch):
        """600 concurrent connections on one port: the state table is
        rebuilt when it reaches 256 entries and again when it has
        doubled — not on every accept past the 256th (344 rebuilds,
        O(n) each) — and a rebuild never drops the connection being
        accepted.  Closed states still leave at the next doubling."""
        from repro.core.ft_tcp import FtPort

        rebuilds = []
        prune = FtPort._prune_states

        def counting(port):
            rebuilds.append((port.host_server.name, len(port.states)))
            prune(port)

        monkeypatch.setattr(FtPort, "_prune_states", counting)
        tb = FtTestbed(n_backups=1)
        primary = tb.ft_port(0)

        def open_connections(n):
            conns = []
            for _ in range(n):
                conns.append(tb.connect())
                tb.run_for(0.002)
            tb.run_for(0.5)
            return conns

        first = open_connections(600)
        assert len(primary.states) == 600
        sizes = [size for name, size in rebuilds if name == primary.host_server.name]
        assert sizes == [256, 512]
        for conn in first:
            conn.close()
            tb.run_for(0.002)
        tb.run_for(2.0)
        assert all(s.conn.state is TcpState.CLOSED for s in primary.states.values())
        open_connections(430)  # the 425th finds 1024 entries: twice the last rebuild's
        assert len(primary.states) == 430
