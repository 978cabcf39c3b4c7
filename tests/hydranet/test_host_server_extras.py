"""Host-server and redirector behavioural details."""


from repro.hydranet import (
    HOST_SERVER_SOFTWARE_OVERHEAD,
    HostServer,
    REDIRECTOR_SOFTWARE_OVERHEAD,
    Redirector,
)
from repro.netsim import Simulator
from repro.sockets import node_for

from .conftest import HydranetNet

SERVICE = HydranetNet.SERVICE_IP


def test_software_overhead_defaults():
    sim = Simulator()
    hs = HostServer(sim, "hs")
    rd = Redirector(sim, "rd")
    assert hs.kernel.software_overhead == HOST_SERVER_SOFTWARE_OVERHEAD
    assert rd.kernel.software_overhead == REDIRECTOR_SOFTWARE_OVERHEAD


def test_overhead_override():
    sim = Simulator()
    hs = HostServer(sim, "hs", software_overhead=0.0)
    assert hs.kernel.software_overhead == 0.0


def test_tunneled_counter_increments(hnet_no_origin):
    hnet = hnet_no_origin
    hnet.hs_a.v_host(SERVICE)
    sock = hnet.hs_a.node.udp_socket()
    sock.bind(53, ip=SERVICE)
    hnet.redirector.install_scaling(SERVICE, 53, hnet.hs_a.ip)
    client = node_for(hnet.client).udp_socket()
    client.send_to(SERVICE, 53, b"one")
    client.send_to(SERVICE, 53, b"two")
    hnet.run(until=5.0)
    assert hnet.hs_a.tunneled_packets_received == 2


def test_redirector_counts_redirections(hnet_no_origin):
    hnet = hnet_no_origin
    hnet.hs_a.v_host(SERVICE)
    sock = hnet.hs_a.node.udp_socket()
    sock.bind(53, ip=SERVICE)
    hnet.redirector.install_scaling(SERVICE, 53, hnet.hs_a.ip)
    client = node_for(hnet.client).udp_socket()
    for _ in range(4):
        client.send_to(SERVICE, 53, b"x")
    hnet.run(until=5.0)
    assert hnet.redirector.packets_redirected == 4
    assert hnet.redirector.packets_multicast == 0


def test_remove_service_clears_entry(hnet_no_origin):
    hnet = hnet_no_origin
    hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
    hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
    hnet.redirector.remove_service(SERVICE, 80)
    assert hnet.redirector.entry_for(SERVICE, 80) is None


def test_two_vhosts_on_one_host_server(hnet_no_origin):
    hnet = hnet_no_origin
    received = {}
    for ip in (SERVICE, "198.51.100.44"):
        hnet.hs_a.v_host(ip)
        sock = hnet.hs_a.node.udp_socket()
        sock.bind(53, ip=ip)
        sock.on_datagram = (
            lambda data, src, sport, dst, ip=ip: received.setdefault(ip, data)
        )
        hnet.redirector.install_scaling(ip, 53, hnet.hs_a.ip)
    hnet.topo.add_external_network("198.51.100.44/32", hnet.redirector)
    hnet.topo.build_routes()
    client = node_for(hnet.client).udp_socket()
    client.send_to(SERVICE, 53, b"for one")
    client.send_to("198.51.100.44", 53, b"for two")
    hnet.run(until=5.0)
    assert received[SERVICE] == b"for one"
    assert received["198.51.100.44"] == b"for two"
