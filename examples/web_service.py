#!/usr/bin/env python
"""The paper's Figure 2 world, end to end.

* ``www.northwest.com`` (192.20.225.20) runs an httpd on its origin
  host far away.
* For scaling, a replica ``a_httpd`` is installed on a host server near
  the clients; the redirector reroutes port 80 there, while telnet
  (port 23) still reaches the origin untouched.
* A second service, ``audio.south.com`` (198.51.100.5), is deployed
  *fault-tolerant* on two host servers; a client population hammers it
  while the primary crashes.

Run:  python examples/web_service.py
"""

from repro.apps.httpd import HttpClient, httpd_factory, install_httpd, render_object
from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import IPAddress, Simulator, Topology
from repro.sockets import node_for
from repro.workloads import HttpWorkload

WWW_IP = "192.20.225.20"  # www.northwest.com
AUDIO_IP = "198.51.100.5"  # audio.south.com


def main():
    sim = Simulator(seed=3)
    topo = Topology(sim)
    clients = [topo.add_host(f"client{i}") for i in range(3)]
    redirector = Redirector(sim, "redirector")
    topo.add(redirector)
    origin = topo.add_host("origin")
    hs_near = HostServer(sim, "hs_near")
    hs_far = HostServer(sim, "hs_far")
    topo.add(hs_near)
    topo.add(hs_far)
    for c in clients:
        topo.connect(c, redirector)
    topo.connect(redirector, origin, latency=0.040)  # the origin is far away
    topo.connect(redirector, hs_near, latency=0.001)
    topo.connect(redirector, hs_far, latency=0.002)
    topo.add_external_network(f"{WWW_IP}/32", origin)
    topo.add_external_network(f"{AUDIO_IP}/32", redirector)
    topo.build_routes()
    origin.kernel.virtual_addresses.add(IPAddress(WWW_IP))

    # ---- www.northwest.com: origin httpd + scaled replica -----------
    install_httpd(node_for(origin), port=80, ip=WWW_IP)
    telnet_log = bytearray()
    telnet = node_for(origin).listen(23, ip=WWW_IP)
    telnet.on_accept = lambda conn: setattr(conn, "on_data", telnet_log.extend)
    hs_near.v_host(WWW_IP)
    replica = hs_near.node.listen(80, ip=WWW_IP)
    replica.on_accept = httpd_factory(hs_near)
    redirector.install_scaling(WWW_IP, 80, hs_near.ip)
    print(f"www ({WWW_IP}): httpd on origin (40ms away), a_httpd replica on hs_near (1ms)")

    # ---- audio.south.com: fault-tolerant on two host servers --------
    daemon = RedirectorDaemon(redirector)
    audio = ReplicatedTcpService(
        AUDIO_IP, 80, httpd_factory, detector=DetectorParams(threshold=3, cooldown=1.0)
    )
    audio.add_primary(FtNode(hs_near, redirector.ip))
    audio.add_backup(FtNode(hs_far, redirector.ip))
    sim.run(until=2.0)
    print(f"audio ({AUDIO_IP}): fault-tolerant, primary hs_near + backup hs_far\n")

    # ---- exercise both -----------------------------------------------
    www_results = []
    HttpClient(node_for(clients[0]), WWW_IP, 80).get("/object/4000", www_results.append)
    tn = node_for(clients[1]).connect(WWW_IP, 23)
    tn.on_established = lambda: tn.send(b"USER guest\r\n")

    workload = HttpWorkload(
        sim,
        [node_for(c) for c in clients],
        AUDIO_IP,
        paths=["/object/2000", "/object/500"],
        requests_per_client=6,
        mean_think_time=0.4,
    )
    workload.start()
    sim.schedule(1.5, hs_near.crash)
    sim.schedule(1.5, lambda: print(f"t={sim.now:.2f}s  CRASH: hs_near (audio primary, www replica)"))
    sim.run(until=240.0)

    www = www_results[0]
    print(f"www GET /object/4000 -> {www.status}, {len(www.body)}B in {www.elapsed * 1000:.1f}ms "
          f"(served by the nearby replica)")
    print(f"telnet to origin      -> {bytes(telnet_log)!r} (passed through untouched)")
    print(f"audio workload        -> {workload.successes} ok / {workload.failures} failed "
          f"of {len(workload.records)} requests across the crash")
    print(f"audio primary now     -> {audio.primary.node.name if audio.primary else 'none'}")
    assert www.ok and www.body == render_object(4000)
    assert workload.successes == 18 and workload.failures == 0
    assert audio.primary is not None and audio.primary.node.name == "hs_far"
    print("OK — scaling + pass-through + fault tolerance, all client-transparent")


if __name__ == "__main__":
    main()
