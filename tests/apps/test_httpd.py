"""Tests for the miniature HTTP service."""

import pytest

from repro.apps.httpd import HttpClient, build_response, httpd_factory, install_httpd, render_object
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for


@pytest.fixture()
def net():
    sim = Simulator()
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    server = topo.add_host("server", ZERO_COST)
    topo.connect(client, server)
    topo.build_routes()
    server_node = node_for(server)
    install_httpd(server_node, port=80)
    return sim, node_for(client), server_node


def fetch(sim, client_node, server_ip, path, until=30.0):
    responses = []
    HttpClient(client_node, server_ip, 80).get(path, responses.append)
    sim.run(until=until)
    assert len(responses) == 1
    return responses[0]


def test_render_object_deterministic():
    assert render_object(64) == render_object(64)
    assert len(render_object(1000)) == 1000


def test_build_response_has_content_length():
    response = build_response(200, b"abc")
    assert b"Content-Length: 3" in response
    assert response.endswith(b"abc")


def test_get_object(net):
    sim, client, server = net
    response = fetch(sim, client, server.ip, "/object/500")
    assert response.ok
    assert response.status == 200
    assert response.body == render_object(500)


def test_large_object(net):
    sim, client, server = net
    response = fetch(sim, client, server.ip, "/object/100000", until=120.0)
    assert response.ok
    assert len(response.body) == 100000


def test_zero_byte_object(net):
    sim, client, server = net
    response = fetch(sim, client, server.ip, "/object/0")
    assert response.status == 200
    assert response.body == b""


def test_unknown_path_404(net):
    sim, client, server = net
    response = fetch(sim, client, server.ip, "/nope")
    assert response.status == 404


def test_oversized_request_400(net):
    sim, client, server = net
    response = fetch(sim, client, server.ip, "/object/99999999")
    assert response.status == 400


def test_elapsed_recorded(net):
    sim, client, server = net
    response = fetch(sim, client, server.ip, "/object/100")
    assert response.elapsed > 0


def test_connection_refused_reported(net):
    sim, client, server = net
    responses = []
    HttpClient(client, server.ip, 81).get("/object/1", responses.append)
    sim.run(until=30.0)
    assert len(responses) == 1
    assert not responses[0].ok
    assert responses[0].error == "refused"


def test_factory_is_deterministic_per_replica():
    """Two handler instances produce identical responses for identical
    requests (the replication requirement)."""
    sim = Simulator()
    topo = Topology(sim)
    client = topo.add_host("client", ZERO_COST)
    s1 = topo.add_host("s1", ZERO_COST)
    s2 = topo.add_host("s2", ZERO_COST)
    topo.connect(client, s1)
    topo.connect(client, s2)
    topo.build_routes()
    for host in (s1, s2):
        node = node_for(host)
        listener = node.listen(80)
        listener.on_accept = httpd_factory(host)
    bodies = []
    for host in (s1, s2):
        HttpClient(node_for(client), host.ip, 80).get(
            "/object/777", lambda r: bodies.append(r.body)
        )
    sim.run(until=30.0)
    assert len(bodies) == 2
    assert bodies[0] == bodies[1]
