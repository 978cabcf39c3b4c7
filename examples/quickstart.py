#!/usr/bin/env python
"""Quickstart: a fault-tolerant echo service in ~60 lines.

Builds the paper's testbed shape — client, redirector, two host
servers — deploys an echo service replicated with HydraNet-FT, then
crashes the primary mid-conversation.  The client's TCP connection
survives untouched.

Run:  python examples/quickstart.py
"""

from repro.apps.echo import echo_server_factory  # deterministic on every replica
from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Simulator, Topology
from repro.sockets import node_for

SERVICE_IP = "192.20.225.20"  # the paper's example service address
PORT = 7


def main():
    sim = Simulator(seed=42)

    # --- topology: client -- redirector -- {hs_a, hs_b} -------------
    topo = Topology(sim)
    client = topo.add_host("client")
    redirector = Redirector(sim, "redirector")
    topo.add(redirector)
    hs_a = HostServer(sim, "hs_a")
    hs_b = HostServer(sim, "hs_b")
    topo.add(hs_a)
    topo.add(hs_b)
    topo.connect(client, redirector)
    topo.connect(redirector, hs_a)
    topo.connect(redirector, hs_b)
    # The service address belongs to no real host; routes point at the
    # redirector, which intercepts and tunnels.
    topo.add_external_network(f"{SERVICE_IP}/32", redirector)
    topo.build_routes()

    # --- HydraNet-FT deployment --------------------------------------
    RedirectorDaemon(redirector)
    service = ReplicatedTcpService(
        SERVICE_IP, PORT, echo_server_factory, detector=DetectorParams(threshold=3)
    )
    service.add_primary(FtNode(hs_a, redirector.ip))
    service.add_backup(FtNode(hs_b, redirector.ip))
    sim.run(until=2.0)  # let registration and chain setup settle
    print(f"service {SERVICE_IP}:{PORT} replicated on hs_a (primary) and hs_b (backup)")

    # --- a client that chats forever ----------------------------------
    conn = node_for(client).connect(SERVICE_IP, PORT)
    state = {"sent": 0, "echoed": 0}

    def chat():
        if conn.state.value != "ESTABLISHED":
            sim.schedule(0.1, chat)
            return
        message = f"message-{state['sent']:04d}".encode()
        conn.send(message)
        state["sent"] += 1
        sim.schedule(0.05, chat)

    def on_data(data):
        state["echoed"] += len(data)

    conn.on_data = on_data
    conn.on_closed = lambda reason: print(f"!! client saw connection event: {reason}")
    chat()

    # --- crash the primary mid-conversation ---------------------------
    def crash():
        print(f"t={sim.now:6.2f}s  CRASH: primary hs_a fails (client keeps talking)")
        hs_a.crash()

    sim.schedule(2.0, crash)  # 2s from now (t=4s)

    def report():
        primary = service.primary
        print(
            f"t={sim.now:6.2f}s  sent={state['sent']:4d} messages, "
            f"echoed={state['echoed']:6d} bytes, "
            f"primary={primary.node.name if primary else 'none (fail-over in progress)'}, "
            f"client connection: {conn.state.value}"
        )
        if sim.now < 20.0:
            sim.schedule(2.0, report)

    sim.schedule(2.0, report)
    sim.run(until=22.0)

    promoted = service.replicas[1].ft_port.is_primary
    print()
    print(f"backup promoted to primary: {promoted}")
    print(f"client connection still {conn.state.value}, no resets, no API events")
    print(f"total echoed: {state['echoed']} bytes across the fail-over")
    assert promoted and conn.state.value == "ESTABLISHED"
    print("OK")


if __name__ == "__main__":
    main()
