"""Figure 1/2 scenarios end-to-end: a web service replicated for
scaling on one host server while other ports pass through to the
origin, and a fault-tolerant web service surviving a crash under a
multi-client workload."""


from repro.apps.httpd import HttpClient, httpd_factory, install_httpd, render_object
from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Simulator, Topology, ZERO_COST
from repro.sockets import node_for
from repro.workloads import HttpWorkload

SERVICE_IP = "192.20.225.20"


def build_world(seed=0, n_host_servers=2, n_clients=2):
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    clients = [topo.add_host(f"client{i}", ZERO_COST) for i in range(n_clients)]
    redirector = Redirector(sim, "redirector", ZERO_COST, software_overhead=0.0)
    topo.add(redirector)
    origin = topo.add_host("origin", ZERO_COST)
    host_servers = []
    for i in range(n_host_servers):
        hs = HostServer(sim, f"hs{i}", ZERO_COST, software_overhead=0.0)
        topo.add(hs)
        topo.connect(redirector, hs)
        host_servers.append(hs)
    for c in clients:
        topo.connect(c, redirector)
    topo.connect(redirector, origin)
    topo.add_external_network(f"{SERVICE_IP}/32", origin)
    topo.build_routes()
    origin.kernel.virtual_addresses.add(
        __import__("repro.netsim", fromlist=["IPAddress"]).IPAddress(SERVICE_IP)
    )
    return sim, topo, clients, redirector, origin, host_servers


class TestScalingScenario:
    """Figure 2: httpd on the origin, a_httpd replica on a host server;
    port 80 redirected, port 23 passed through."""

    def test_web_served_by_replica_telnet_by_origin(self):
        sim, topo, clients, redirector, origin, host_servers = build_world()
        # Origin runs the real httpd on the service IP plus "telnetd".
        origin_node = node_for(origin)
        install_httpd(origin_node, port=80, ip=SERVICE_IP)
        telnet_data = bytearray()
        telnet = origin_node.listen(23, ip=SERVICE_IP)
        telnet.on_accept = lambda conn: setattr(conn, "on_data", telnet_data.extend)
        # Host server runs the a_httpd replica under a virtual host.
        hs = host_servers[0]
        hs.v_host(SERVICE_IP)
        replica_listener = hs.node.listen(80, ip=SERVICE_IP)
        replica_listener.on_accept = httpd_factory(hs)
        redirector.install_scaling(SERVICE_IP, 80, hs.ip)

        responses = []
        HttpClient(node_for(clients[0]), SERVICE_IP, 80).get(
            "/object/2000", responses.append
        )
        tn = node_for(clients[1]).connect(SERVICE_IP, 23)
        tn.on_established = lambda: tn.send(b"login:")
        sim.run(until=30.0)

        assert responses[0].ok
        assert responses[0].body == render_object(2000)
        assert bytes(telnet_data) == b"login:"
        # The web request was served by the replica, not the origin.
        assert replica_listener.connections_accepted == 1
        assert hs.tunneled_packets_received > 0


class TestFtWebScenario:
    def build_ft_web(self, seed=0):
        sim, topo, clients, redirector, origin, host_servers = build_world(seed=seed)
        RedirectorDaemon(redirector)
        nodes = [FtNode(hs, redirector.ip) for hs in host_servers]
        service = ReplicatedTcpService(
            SERVICE_IP,
            80,
            httpd_factory,
            detector=DetectorParams(threshold=3, cooldown=1.0),
        )
        service.add_primary(nodes[0])
        service.add_backup(nodes[1])
        sim.run(until=2.0)
        return sim, clients, host_servers, service

    def test_multi_client_workload_no_faults(self):
        sim, clients, host_servers, service = self.build_ft_web()
        workload = HttpWorkload(
            sim,
            [node_for(c) for c in clients],
            SERVICE_IP,
            paths=["/object/500", "/object/3000"],
            requests_per_client=5,
            mean_think_time=0.02,
        )
        workload.start()
        sim.run(until=120.0)
        assert workload.complete
        assert workload.failures == 0
        assert workload.successes == 10

    def test_workload_survives_primary_crash(self):
        sim, clients, host_servers, service = self.build_ft_web()
        workload = HttpWorkload(
            sim,
            [node_for(c) for c in clients],
            SERVICE_IP,
            paths=["/object/800"],
            requests_per_client=8,
            mean_think_time=0.25,
        )
        workload.start()
        sim.schedule(1.0, host_servers[0].crash)
        sim.run(until=300.0)
        assert workload.complete
        # In-flight requests at crash time ride the fail-over; requests
        # opened after promotion are served by the ex-backup.  All
        # requests eventually succeed.
        assert workload.successes == 16
        assert service.replicas[1].ft_port.is_primary
