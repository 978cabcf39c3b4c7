"""Tests for workload generators."""

import pytest

from repro.apps import install_httpd
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for
from repro.workloads import FIGURE4_PACKET_SIZES, HttpWorkload


def test_figure4_sizes_match_paper():
    assert FIGURE4_PACKET_SIZES == (16, 32, 64, 128, 256, 512, 1024)


class TestHttpWorkload:
    @pytest.fixture()
    def net(self):
        sim = Simulator(seed=4)
        topo = Topology(sim)
        clients = [topo.add_host(f"c{i}", ZERO_COST) for i in range(3)]
        server = topo.add_host("server", ZERO_COST)
        router = topo.add_router("r", ZERO_COST)
        for c in clients:
            topo.connect(c, router)
        topo.connect(router, server)
        topo.build_routes()
        install_httpd(node_for(server), port=80)
        return sim, [node_for(c) for c in clients], server

    def test_all_requests_complete(self, net):
        sim, client_nodes, server = net
        workload = HttpWorkload(
            sim,
            client_nodes,
            server.ip,
            paths=["/object/100", "/object/1000"],
            requests_per_client=4,
            mean_think_time=0.01,
        )
        workload.start()
        sim.run(until=120.0)
        assert workload.complete
        assert workload.successes == 12
        assert workload.failures == 0

    def test_latencies_collected(self, net):
        sim, client_nodes, server = net
        workload = HttpWorkload(
            sim, client_nodes, server.ip, requests_per_client=2, mean_think_time=0.01
        )
        workload.start()
        sim.run(until=120.0)
        latencies = workload.latencies()
        assert len(latencies) == 6
        assert all(l > 0 for l in latencies)

    def test_failures_counted(self, net):
        sim, client_nodes, server = net
        workload = HttpWorkload(
            sim,
            client_nodes,
            server.ip,
            port=8080,  # nothing listens here
            requests_per_client=1,
        )
        workload.start()
        sim.run(until=60.0)
        assert workload.failures == 3

    def test_deterministic_given_seed(self):
        def run_once():
            sim = Simulator(seed=9)
            topo = Topology(sim)
            client = topo.add_host("c", ZERO_COST)
            server = topo.add_host("s", ZERO_COST)
            topo.connect(client, server)
            topo.build_routes()
            install_httpd(node_for(server), port=80)
            workload = HttpWorkload(
                sim, [node_for(client)], server.ip, requests_per_client=5
            )
            workload.start()
            sim.run(until=120.0)
            return workload.latencies()

        assert run_once() == run_once()
