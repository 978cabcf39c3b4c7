"""Tests for the redirector data path: table matching, tunnelling,
scaling redirection, and FT multicast."""

import pytest

from repro.hydranet import RedirectorError
from repro.netsim import Tracer
from repro.sockets import node_for

from .conftest import HydranetNet

SERVICE = HydranetNet.SERVICE_IP


def sink_on(host_server, ip, port):
    """TCP sink bound under a virtual host on a host server."""
    host_server.v_host(ip)
    state = {"data": bytearray(), "conns": []}
    listener = host_server.node.listen(port, ip=ip)

    def accept(conn):
        state["conns"].append(conn)
        conn.on_data = state["data"].extend
        conn.on_remote_close = conn.close

    listener.on_accept = accept
    return state


class TestTableManagement:
    def test_install_scaling_and_lookup(self, hnet):
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry is not None
        assert not entry.fault_tolerant
        assert entry.primary == hnet.hs_a.ip

    def test_install_ft_orders_replicas(self, hnet):
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.primary == hnet.hs_a.ip
        assert entry.backups == [hnet.hs_b.ip]

    def test_scaling_on_ft_entry_rejected(self, hnet):
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        with pytest.raises(RedirectorError):
            hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_b.ip)

    def test_remove_last_replica_removes_entry(self, hnet):
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.remove_replica(SERVICE, 80, hnet.hs_a.ip)
        assert hnet.redirector.entry_for(SERVICE, 80) is None
        hnet.client_node.connect(SERVICE, 80)
        hnet.run(until=5.0)
        assert hnet.redirector.kernel.packets_forwarded > 0
        assert hnet.redirector.packets_redirected == 0
        assert hnet.hs_a.tunneled_packets_received == 0

    def test_promote_moves_to_front(self, hnet):
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_b.ip)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_b.ip, hnet.hs_a.ip]


class TestScalingRedirection:
    def test_tcp_connection_redirected_to_replica(self, hnet_no_origin):
        hnet = hnet_no_origin
        state = sink_on(hnet.hs_a, SERVICE, 80)
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        conn = hnet.client_node.connect(SERVICE, 80)
        conn.on_established = lambda: (conn.send(b"GET /"), conn.close())
        hnet.run(until=30.0)
        assert bytes(state["data"]) == b"GET /"
        assert hnet.redirector.packets_redirected > 0
        assert hnet.hs_a.tunneled_packets_received > 0

    def test_non_matching_port_forwarded_to_origin(self, hnet):
        """Client B's telnet traffic passes the redirector untouched
        (Figure 2 scenario)."""
        origin_state = {"data": bytearray()}
        origin_node = node_for(hnet.origin)
        listener = origin_node.listen(23, ip=SERVICE)
        listener.on_accept = lambda c: setattr(c, "on_data", origin_state["data"].extend)
        # Redirect only port 80 to hs_a; port 23 has no entry.
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        conn = hnet.client_node.connect(SERVICE, 23)
        conn.on_established = lambda: conn.send(b"telnet!")
        hnet.run(until=30.0)
        assert bytes(origin_state["data"]) == b"telnet!"
        assert hnet.redirector.packets_redirected == 0

    def test_same_ip_different_ports_split(self, hnet):
        """Port 80 goes to the host server while port 23 reaches the
        origin — the redirector table is keyed by (ip, port)."""
        web_state = sink_on(hnet.hs_a, SERVICE, 80)
        origin_node = node_for(hnet.origin)
        telnet_data = bytearray()
        telnet_listener = origin_node.listen(23, ip=SERVICE)
        telnet_listener.on_accept = lambda c: setattr(c, "on_data", telnet_data.extend)
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        web = hnet.client_node.connect(SERVICE, 80)
        web.on_established = lambda: web.send(b"http")
        tel = hnet.client_node.connect(SERVICE, 23)
        tel.on_established = lambda: tel.send(b"telnet")
        hnet.run(until=30.0)
        assert bytes(web_state["data"]) == b"http"
        assert bytes(telnet_data) == b"telnet"

    def test_reply_comes_from_service_address(self, hnet_no_origin):
        """Client-transparency: responses carry the service IP even
        though a replica produced them."""
        hnet = hnet_no_origin
        hnet.hs_a.v_host(SERVICE)
        listener = hnet.hs_a.node.listen(80, ip=SERVICE)
        listener.on_accept = lambda c: c.send(b"hello from replica")
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        got = bytearray()
        conn = hnet.client_node.connect(SERVICE, 80)
        conn.on_data = got.extend
        hnet.run(until=30.0)
        assert bytes(got) == b"hello from replica"
        assert str(conn.remote_ip) == SERVICE


class TestFtMulticast:
    def test_packets_copied_to_all_replicas(self, hnet_no_origin):
        hnet = hnet_no_origin
        state_a = sink_on(hnet.hs_a, SERVICE, 80)
        state_b = sink_on(hnet.hs_b, SERVICE, 80)
        # Make hs_b primary so the client handshake completes (only the
        # primary answers; here both answer, which is fine for this
        # data-path-only test since they use different ISS policies...
        # so instead mark only hs_a as responder by not listening on b).
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        conn = hnet.client_node.connect(SERVICE, 80)
        conn.on_established = lambda: conn.send(b"to both")
        hnet.run(until=30.0)
        assert hnet.hs_a.tunneled_packets_received > 0
        assert hnet.hs_b.tunneled_packets_received > 0
        assert hnet.redirector.packets_multicast > 0

    def test_multicast_counts_per_replica(self, hnet_no_origin):
        hnet = hnet_no_origin
        sink_on(hnet.hs_a, SERVICE, 80)
        sink_on(hnet.hs_b, SERVICE, 80)
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        hnet.sim.tracer = Tracer(keep_records=False)
        conn = hnet.client_node.connect(SERVICE, 80)
        hnet.run(until=5.0)
        # Every client packet produced one tunnel copy per replica.
        assert hnet.hs_a.tunneled_packets_received == hnet.hs_b.tunneled_packets_received
