"""Demo D2: HydraNet's original purpose — service scaling (paper §1/§3).

"Without a replication scheme, the distance from the clients ... to the
server ... can cause increased access latencies and network load.  In
addition, the server itself may be overly loaded."

Measures a population of clients fetching from a far-away origin with
and without a nearby HydraNet replica:

* per-request latency (distance + origin load);
* packets handled by the origin host (load diffusion);
* bytes carried on the long-haul link (network load).

Run with:  python -m repro.experiments.scaling_benefit
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.runtime import Task

from repro.apps.httpd import httpd_factory, install_httpd
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.metrics.stats import percentile
from repro.metrics.tables import Table
from repro.netsim import IPAddress, Simulator, Topology
from repro.sockets import node_for
from repro.workloads import HttpWorkload

from .testbeds import CLIENT_486, REDIRECTOR_486, SERVER_P120, _link_kw

SERVICE_IP = "192.20.225.20"
FAR_LATENCY = 0.045  # the origin is ~45ms away
NEAR_LATENCY = 0.001


@dataclass
class ScalingOutcome:
    label: str
    mean_latency_ms: float
    p95_latency_ms: float
    origin_packets: int
    long_haul_bytes: int
    successes: int
    failures: int


def _build_world(seed: int):
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    clients = [topo.add_host(f"client{i}", CLIENT_486) for i in range(4)]
    redirector = Redirector(sim, "redirector", REDIRECTOR_486)
    topo.add(redirector)
    origin = topo.add_host("origin", SERVER_P120)
    host_server = HostServer(sim, "hs_near", SERVER_P120)
    topo.add(host_server)
    for c in clients:
        topo.connect(c, redirector, **_link_kw(latency=NEAR_LATENCY))
    long_haul = topo.connect(redirector, origin, **_link_kw(latency=FAR_LATENCY))
    topo.connect(redirector, host_server, **_link_kw(latency=NEAR_LATENCY))
    topo.add_external_network(f"{SERVICE_IP}/32", origin)
    topo.build_routes()
    origin.kernel.virtual_addresses.add(IPAddress(SERVICE_IP))
    install_httpd(node_for(origin), port=80, ip=SERVICE_IP)
    return sim, topo, clients, redirector, origin, host_server, long_haul


def run_scaling(
    with_replica: bool,
    requests_per_client: int = 8,
    object_size: int = 8000,
    seed: int = 0,
    horizon: float = 300.0,
) -> ScalingOutcome:
    sim, topo, clients, redirector, origin, host_server, long_haul = _build_world(seed)
    with topo:
        if with_replica:
            RedirectorDaemon(redirector)
            host_server.v_host(SERVICE_IP)
            listener = host_server.node.listen(80, ip=SERVICE_IP)
            listener.on_accept = httpd_factory(host_server)
            redirector.install_scaling(SERVICE_IP, 80, host_server.ip)
        workload = HttpWorkload(
            sim,
            [node_for(c) for c in clients],
            SERVICE_IP,
            paths=[f"/object/{object_size}"],
            requests_per_client=requests_per_client,
            mean_think_time=0.05,
        )
        workload.start()
        sim.run(until=horizon)
        latencies = workload.latencies()
        origin_packets = sum(nic.packets_in + nic.packets_out for nic in origin.interfaces)
        long_haul_bytes = long_haul.a_to_b.bytes_sent + long_haul.b_to_a.bytes_sent
        return ScalingOutcome(
            label="with nearby replica" if with_replica else "origin only",
            mean_latency_ms=1000 * sum(latencies) / len(latencies) if latencies else 0.0,
            p95_latency_ms=1000 * percentile(latencies, 95) if latencies else 0.0,
            origin_packets=origin_packets,
            long_haul_bytes=long_haul_bytes,
            successes=workload.successes,
            failures=workload.failures,
        )


def check_shape(baseline: ScalingOutcome, scaled: ScalingOutcome) -> list[str]:
    problems = []
    if baseline.failures or scaled.failures:
        problems.append("requests failed")
    if scaled.mean_latency_ms >= baseline.mean_latency_ms:
        problems.append(
            f"replica did not cut latency "
            f"({baseline.mean_latency_ms:.1f} -> {scaled.mean_latency_ms:.1f} ms)"
        )
    if scaled.origin_packets >= baseline.origin_packets * 0.5:
        problems.append(
            f"origin load not diffused ({baseline.origin_packets} -> {scaled.origin_packets})"
        )
    if scaled.long_haul_bytes >= baseline.long_haul_bytes * 0.5:
        problems.append(
            f"long-haul traffic not reduced "
            f"({baseline.long_haul_bytes} -> {scaled.long_haul_bytes})"
        )
    return problems


def _requests(args: Sequence[str]) -> int:
    return 4 if "--fast" in args else 8


def shard(args: Sequence[str]) -> list[Task]:
    """Parallel-runner hook: the two configurations are independent
    simulations, so they fan out as separate tasks."""
    requests = _requests(args)
    return [
        Task(
            key="origin-only",
            fn=run_scaling,
            kwargs={"with_replica": False, "requests_per_client": requests},
            # The origin round-trips cost 45ms each: the baseline
            # simulates more time than the replicated run.
            cost=2.0,
        ),
        Task(
            key="with-replica",
            fn=run_scaling,
            kwargs={"with_replica": True, "requests_per_client": requests},
            cost=1.0,
        ),
    ]


def merge_shards(args: Sequence[str], values: dict) -> int:
    """Parallel-runner hook: print the exact report ``main`` prints."""
    return _report(values["origin-only"], values["with-replica"])


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    values = {task.key: task.fn(**task.kwargs) for task in shard(args)}
    return merge_shards(args, values)


def _report(baseline: ScalingOutcome, scaled: ScalingOutcome) -> int:
    table = Table(
        "D2: service scaling — clients 1ms from the redirector, origin 45ms away",
        ["configuration", "mean [ms]", "p95 [ms]", "origin packets", "long-haul bytes"],
    )
    for o in (baseline, scaled):
        table.add_row(
            [o.label, o.mean_latency_ms, o.p95_latency_ms, o.origin_packets, o.long_haul_bytes]
        )
    print(table)
    problems = check_shape(baseline, scaled)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        "\nShape check: OK (the nearby replica cuts latency, origin load, "
        "and long-haul traffic — §1's load diffusion)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
