"""Tests for the echo and media-streaming workloads."""

import pytest

from repro.apps.echo import EchoClient, EchoStream, install_echo_server
from repro.apps.media import MediaClient, media_server_factory, render_frame
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for
from repro.tcp.options import TcpOptions


@pytest.fixture()
def net():
    sim = Simulator()
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    server = topo.add_host("server", ZERO_COST)
    topo.connect(client, server)
    topo.build_routes()
    return sim, node_for(client), node_for(server)


class TestEcho:
    def test_all_requests_answered(self, net):
        sim, client, server = net
        install_echo_server(server)
        echo = EchoClient(client, server.ip, n_requests=20, think_time=0.001)
        echo.start()
        sim.run(until=60.0)
        assert echo.stats.responses_received == 20
        assert echo.done
        assert echo.stats.errors == []

    def test_response_times_recorded(self, net):
        sim, client, server = net
        install_echo_server(server)
        echo = EchoClient(client, server.ip, n_requests=5)
        echo.start()
        sim.run(until=60.0)
        assert len(echo.stats.response_times) == 5
        assert all(t > 0 for t in echo.stats.response_times)

    def test_on_done_callback(self, net):
        sim, client, server = net
        install_echo_server(server)
        done = []
        echo = EchoClient(client, server.ip, n_requests=3)
        echo.on_done = done.append
        echo.start()
        sim.run(until=60.0)
        assert len(done) == 1

    def test_outstanding_counter(self, net):
        sim, client, server = net
        install_echo_server(server)
        echo = EchoClient(client, server.ip, n_requests=3)
        echo.start()
        sim.run(until=60.0)
        assert echo.stats.outstanding == 0

    def test_error_recorded_on_refused(self, net):
        sim, client, server = net
        echo = EchoClient(client, server.ip, port=99, n_requests=1)
        echo.start()
        sim.run(until=30.0)
        assert echo.stats.errors == ["refused"]


def small_buffer_net(send_buffer_size):
    """Client and echo server; the client's send buffer holds
    ``send_buffer_size`` bytes."""
    sim = Simulator()
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    server = topo.add_host("server", ZERO_COST)
    topo.connect(client, server)
    topo.build_routes()
    install_echo_server(node_for(server))
    options = TcpOptions(send_buffer_size=send_buffer_size)
    return sim, node_for(client, options), server.ip


class TestEchoStream:
    def test_bulk_delivers_the_whole_payload_in_order(self):
        sim, client, server_ip = small_buffer_net(4096)
        stream = EchoStream(client, server_ip, 7, total_bytes=30_000)
        sim.run(until=30.0)
        payload = bytes(i % 251 for i in range(30_000))
        assert stream.sent == payload
        assert stream.received == payload
        assert stream.events == []

    def test_paced_stops_at_until(self):
        sim, client, server_ip = small_buffer_net(65535)
        stream = EchoStream(
            client, server_ip, 7, chunk=100, every=0.5, start=1.0, until=3.0
        )
        sim.run(until=10.0)
        # Chunks at t = 1.0, 1.5, 2.0, 2.5; none at or after 3.0.
        assert stream.sent == b"".join(bytes([k]) * 100 for k in range(4))
        assert stream.received == stream.sent

    def test_sent_counts_only_accepted_bytes(self):
        sim, client, server_ip = small_buffer_net(1000)
        stream = EchoStream(
            client, server_ip, 7, chunk=1500, every=1.0, start=1.0, until=1.5
        )
        sim.run(until=10.0)
        assert stream.sent == bytes(1000)
        assert stream.received == stream.sent

    def test_needs_exactly_one_mode(self):
        sim, client, server_ip = small_buffer_net(1000)
        with pytest.raises(ValueError):
            EchoStream(client, server_ip, 7)
        with pytest.raises(ValueError):
            EchoStream(client, server_ip, 7, total_bytes=10, every=1.0)


class TestMedia:
    def test_frame_rendering_deterministic(self):
        assert render_frame(3, 100) == render_frame(3, 100)
        assert render_frame(3, 100) != render_frame(4, 100)
        assert len(render_frame(0, 1000)) == 1000

    def test_stream_received_in_order(self, net):
        sim, client, server = net
        factory = media_server_factory(frame_size=500, frame_interval=0.005, n_frames=40)
        listener = server.listen(9000)
        listener.on_accept = factory(None)
        media = MediaClient(client, server.ip, 9000, frame_size=500)
        media.start()
        sim.run(until=60.0)
        assert media.stats.frames_received == 40
        assert not media.stats.corrupt
        assert media.stats.finished

    def test_stream_pacing(self, net):
        sim, client, server = net
        factory = media_server_factory(frame_size=500, frame_interval=0.02, n_frames=20)
        listener = server.listen(9000)
        listener.on_accept = factory(None)
        media = MediaClient(client, server.ip, 9000, frame_size=500)
        media.start()
        sim.run(until=60.0)
        gaps = media.stats.gaps()
        # Paced at 20ms; allow coalescing but the mean must be close.
        assert 0.01 < sum(gaps) / len(gaps) < 0.04

    def test_max_stall_small_without_faults(self, net):
        sim, client, server = net
        factory = media_server_factory(frame_size=500, frame_interval=0.01, n_frames=50)
        listener = server.listen(9000)
        listener.on_accept = factory(None)
        media = MediaClient(client, server.ip, 9000, frame_size=500)
        media.start()
        sim.run(until=60.0)
        assert media.stats.max_stall() < 0.1

    def test_on_finished_callback(self, net):
        sim, client, server = net
        factory = media_server_factory(frame_size=500, frame_interval=0.005, n_frames=5)
        listener = server.listen(9000)
        listener.on_accept = factory(None)
        media = MediaClient(client, server.ip, 9000, frame_size=500)
        finished = []
        media.on_finished = finished.append
        media.start()
        sim.run(until=60.0)
        assert len(finished) == 1
        assert finished[0].frames_received == 5
