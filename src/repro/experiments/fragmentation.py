"""Ablation A4: fragmentation effects.

Figure 4's commentary: "beyond packet size of MTU, the throughput drops
again.  This is due to the fragmentation of packets."  Two experiments
reproduce that effect and its HydraNet-specific cousin:

* **write-size sweep across the MTU** — a client NIC with a large MTU
  sends single segments that a downstream 1500-byte hop must fragment;
  throughput climbs with write size, then dips past the MTU boundary
  where every segment becomes two packets.
* **tunnelling-induced fragmentation** — IP-in-IP encapsulation adds 20
  bytes, so a full-MSS segment redirected to a host server no longer
  fits the server-side MTU and fragments at the redirector.  Capping
  the MSS by the encapsulation overhead avoids it (the knob an operator
  would turn).

Run with:  python -m repro.experiments.fragmentation
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.ttcp import UdpTtcpSender, UdpTtcpSink
from repro.metrics.tables import Table
from repro.netsim import Simulator, Topology
from repro.sockets import node_for

from .testbeds import (
    CLIENT_486,
    REDIRECTOR_486,
    SERVER_P120,
    _link_kw,
    build_primary_only_custom_mss,
)

#: UDP payload sizes around the 1472-byte boundary (1500 MTU - 20 IP -
#: 8 UDP): beyond it every datagram fragments at the sending client.
MTU_SWEEP_SIZES = (512, 1024, 1472, 1500, 2048, 2944)
UDP_FRAG_BOUNDARY = 1472


@dataclass
class FragOutcome:
    label: str
    value: float
    fragments_created: bool
    throughput_kB_per_sec: float


def run_mtu_sweep(
    sizes: Sequence[int] = MTU_SWEEP_SIZES,
    nbuf: int = 512,
    seed: int = 0,
) -> list[FragOutcome]:
    """UDP ttcp across the MTU boundary: datagrams beyond 1472 bytes
    fragment at the (CPU-bound) client, reproducing the classic
    throughput dip Figure 4's commentary refers to."""
    outcomes = []
    for size in sizes:
        sim = Simulator(seed=seed)
        with Topology(sim) as topo:
            client = topo.add_host("client", CLIENT_486)
            router = topo.add_router("router", REDIRECTOR_486)
            server = topo.add_host("server", SERVER_P120)
            topo.connect(client, router, mtu=1500, **_link_kw(queue_capacity=256))
            topo.connect(router, server, mtu=1500, **_link_kw(queue_capacity=256))
            topo.build_routes()
            server_node = node_for(server)
            sink = UdpTtcpSink(server_node, port=5002)
            client_node = node_for(client)
            sender = UdpTtcpSender(
                client_node, str(server.ip), 5002, buflen=size, nbuf=nbuf
            )
            sender.start()
            sim.run(until=600.0)
            result = sink.result(buflen=size, nbuf=nbuf)
            if result.datagrams_received < nbuf * 0.9:
                raise RuntimeError(
                    f"mtu sweep @ {size}B lost too much "
                    f"({result.datagrams_received}/{nbuf})"
                )
            outcomes.append(
                FragOutcome(
                    label="datagram-size",
                    value=size,
                    fragments_created=server.kernel.reassembler.reassembled > 0,
                    throughput_kB_per_sec=result.throughput_kB_per_sec,
                )
            )
    return outcomes


def run_tunnel_fragmentation(nbuf: int = 512, seed: int = 0) -> list[FragOutcome]:
    """Full-MSS segments through the redirector: encapsulation makes
    them fragment; an MSS capped by the tunnel overhead does not."""
    outcomes = []
    for label, mss in (("mss=1460 (fragments)", 1460), ("mss=1440 (fits)", 1440)):
        run, servers = build_primary_only_custom_mss(mss=mss, seed=seed)
        with run:
            result = run.run(buflen=mss, nbuf=nbuf)
            fragmented = servers[0].kernel.reassembler.reassembled > 0
        if not result.completed:
            raise RuntimeError(f"tunnel fragmentation {label} incomplete")
        outcomes.append(
            FragOutcome(
                label=label,
                value=mss,
                fragments_created=fragmented,
                throughput_kB_per_sec=result.throughput_kB_per_sec,
            )
        )
    return outcomes


def check_shape(
    mtu_outcomes: list[FragOutcome], tunnel_outcomes: list[FragOutcome]
) -> list[str]:
    problems = []
    below = [o for o in mtu_outcomes if o.value <= UDP_FRAG_BOUNDARY]
    above = [o for o in mtu_outcomes if o.value > UDP_FRAG_BOUNDARY]
    if below and not all(not o.fragments_created for o in below):
        problems.append("sub-MTU writes fragmented unexpectedly")
    if above and not all(o.fragments_created for o in above):
        problems.append("super-MTU writes did not fragment")
    if below and above:
        # Per-byte efficiency dips right past the MTU boundary: the
        # first size above the MTU underperforms the last size below it.
        if above[0].throughput_kB_per_sec >= below[-1].throughput_kB_per_sec:
            problems.append(
                "no throughput dip past the MTU "
                f"({below[-1].throughput_kB_per_sec:.0f} -> "
                f"{above[0].throughput_kB_per_sec:.0f} kB/s)"
            )
    if len(tunnel_outcomes) == 2:
        fragging, fitting = tunnel_outcomes
        if not fragging.fragments_created:
            problems.append("full-MSS tunnelled segments did not fragment")
        if fitting.fragments_created:
            problems.append("capped-MSS tunnelled segments fragmented")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    fast = "--fast" in args
    nbuf = 128 if fast else 512
    sizes = (1024, 1472, 1500, 2048) if fast else MTU_SWEEP_SIZES
    mtu_outcomes = run_mtu_sweep(sizes=sizes, nbuf=nbuf)
    tunnel_outcomes = run_tunnel_fragmentation(nbuf=nbuf)
    table = Table(
        "A4a: UDP datagram size across the 1500B MTU",
        ["datagram size", "fragments?", "throughput [kB/s]"],
    )
    for o in mtu_outcomes:
        table.add_row([int(o.value), o.fragments_created, o.throughput_kB_per_sec])
    print(table)
    print()
    table2 = Table(
        "A4b: tunnelling-induced fragmentation (redirected primary)",
        ["configuration", "fragments?", "throughput [kB/s]"],
    )
    for o in tunnel_outcomes:
        table2.add_row([o.label, o.fragments_created, o.throughput_kB_per_sec])
    print(table2)
    problems = check_shape(mtu_outcomes, tunnel_outcomes)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nShape check: OK (throughput dips past the MTU; tunnelling fragments full-MSS segments)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
