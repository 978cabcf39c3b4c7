"""D5: datacenter mesh scaling — where does the architecture fall over?

Sweeps service count × client connection count × mesh shape over the
topology subsystem (:mod:`repro.topo`) and reports the p95 request
latency at each load level.  The *saturation point* of a series is the
first load level whose p95 exceeds ``SATURATION_FACTOR ×`` the p95 at
the series' lowest load (or that fails to complete inside the
deadline) — the paper's §7 scalability question, asked empirically.

Every sweep point runs with the invariant monitors armed on every
redirector and reduces to a deterministic fingerprint, so the sweep is
an equality gate across ``--jobs`` levels: serial and parallel runs
print byte-identical reports.

``--certify`` runs the headline scenario instead: a 3-tier fat-tree
with 120 replicated services and 10,500 concurrent client connections,
computed inline and in a pool worker with equal results.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.tables import format_comparison
from repro.runtime import Task
from repro.topo import MeshWorkload, generate, run_mesh_scenario

from .experiment import Certify, Experiment

SATURATION_FACTOR = 2.0

#: The certification scenario: ≥2 mesh tiers, ≥100 replicated services,
#: ≥10k concurrent connections.
CERTIFY_KIND = "fat_tree"
CERTIFY_PARAMS = dict(
    pods=4,
    edges_per_pod=2,
    servers_per_edge=3,
    clients_per_edge=2,
    cores=2,
    services=120,
    backups=1,
)
CERTIFY_WORKLOAD = dict(
    connections=10_500,
    requests_per_conn=2,
    request_size=64,
    think_time=0.15,
    start_window=0.25,
    deadline=120.0,
)


def sweep_point(
    kind: str,
    gen_params: dict,
    connections: int,
    request_size: int = 512,
    seed: int = 0,
) -> dict:
    """One sweep point."""
    spec = generate(kind, gen_params, seed=seed)
    workload = MeshWorkload(
        connections=connections,
        requests_per_conn=2,
        request_size=request_size,
        think_time=0.02,
        deadline=120.0,
    )
    report = run_mesh_scenario(spec, workload)
    return {
        "connections": connections,
        "completed": report.completed,
        "errors": report.errors,
        "violations": len(report.violations),
        "median_ms": 1000 * report.median_response,
        "p95_ms": 1000 * report.p95_response,
        "peak_concurrent": report.peak_concurrent,
        "tiers": spec.tiers,
        "services": len(spec.services),
        "green": report.green,
        "fingerprint": report.fingerprint,
    }


def certify_point(seed: int = 0) -> dict:
    """The acceptance-gate scenario (see module docstring)."""
    spec = generate(CERTIFY_KIND, CERTIFY_PARAMS, seed=seed)
    report = run_mesh_scenario(spec, MeshWorkload(**CERTIFY_WORKLOAD))
    out = report.to_dict()
    out["tiers"] = spec.tiers
    return out


#: Generator parameters every sweep shape shares.
_SHARED = dict(backups=1, bandwidth_bps=10_000_000.0)
#: Sweep shapes: (label, generator family, generator parameters).
FAT_TREE = (
    "fat-tree",
    "fat_tree",
    dict(pods=2, edges_per_pod=2, servers_per_edge=2, clients_per_edge=1, cores=2, **_SHARED),
)
HIER_3 = (
    "hier-3",
    "hierarchical",
    dict(levels=3, fanout=2, servers_per_leaf=2, clients_per_leaf=1, **_SHARED),
)


def _hub_spoke(spokes: int) -> tuple:
    params = dict(spokes=spokes, servers_per_spoke=2, clients_per_spoke=1, **_SHARED)
    return ("hub-spoke", "hub_and_spoke", params)


def _grid(fast: bool):
    """Shapes, service counts, connection counts and request size."""
    if fast:
        return [_hub_spoke(2), FAT_TREE], (4,), (40, 160), 256
    return [FAT_TREE, _hub_spoke(4), HIER_3], (8, 16), (100, 300, 900), 512


def _points(fast: bool) -> list[Task]:
    shapes, services_levels, conns_levels, request_size = _grid(fast)
    return [
        Task(f"{label}/s{n_services}/c{conns}", sweep_point,
             kwargs=dict(kind=kind, gen_params=dict(params, services=n_services),
                         connections=conns, request_size=request_size),
             cost=conns * 1.4e-3)
        for label, kind, params in shapes
        for n_services in services_levels
        for conns in conns_levels
    ]


def _saturation(points: list[dict]) -> Optional[dict]:
    """First load level past the knee, or None if the series never
    saturates within the swept range."""
    base = points[0]["p95_ms"] or 1e-9
    for point in points[1:]:
        overloaded = point["completed"] < point["connections"]
        if overloaded or point["p95_ms"] > SATURATION_FACTOR * base:
            return point
    return None


def _report(fast: bool, values: dict) -> list[str]:
    shapes, services_levels, conns_levels, _size = _grid(fast)
    series = [
        (
            f"{label} × {n_services} services",
            [values[f"{label}/s{n_services}/c{conns}"] for conns in conns_levels],
        )
        for label, _kind, _params in shapes
        for n_services in services_levels
    ]
    results = {
        label: [round(p["p95_ms"], 3) for p in points] for label, points in series
    }
    print(
        format_comparison(
            "D5: mesh scaling — p95 request latency [ms] vs concurrent connections",
            "conns",
            list(conns_levels),
            results,
            note=(
                "(every point: invariant monitors armed mesh-wide; "
                f"saturation = p95 > {SATURATION_FACTOR:.1f}x the lightest load)"
            ),
        )
    )
    print()
    problems = []
    for label, points in series:
        for p in points:
            if p["violations"]:
                problems.append(
                    f"{label} @ {p['connections']} conns: "
                    f"{p['violations']} invariant violation(s)"
                )
            if p["errors"]:
                problems.append(
                    f"{label} @ {p['connections']} conns: {p['errors']} client errors"
                )
        # Invariants must hold at every load, but only the lightest load
        # must fully complete: connections still open at the deadline at
        # a heavy load *are* the saturation signal, not a failure.
        base_point = points[0]
        if base_point["completed"] < base_point["connections"]:
            problems.append(
                f"{label} @ {base_point['connections']} conns (base load): only "
                f"{base_point['completed']} completed inside the deadline"
            )
        knee = _saturation(points)
        base = points[0]["p95_ms"]
        if knee is None:
            print(
                f"  {label}: no saturation up to "
                f"{points[-1]['connections']} conns "
                f"(p95 {base:.2f} -> {points[-1]['p95_ms']:.2f} ms)"
            )
        else:
            print(
                f"  {label}: saturates at {knee['connections']} conns "
                f"(p95 {base:.2f} -> {knee['p95_ms']:.2f} ms, "
                f"{knee['p95_ms'] / (base or 1e-9):.1f}x)"
            )
    return problems


def _certify_check(values: dict) -> list[str]:
    report = values["certify"]
    print("D5 certify: 3-tier fat-tree, 120 services, 10,500 connections")
    for field, value in report.items():
        if field not in ("spec_fingerprint", "violations", "mesh_counters"):
            print(f"  {field}: {value}")
    problems = [f"invariant violation: {v}" for v in report["violations"]]
    if report["completed"] < report["connections"]:
        problems.append(
            f"only {report['completed']}/{report['connections']} connections completed"
        )
    if report["peak_concurrent"] < 10_000:
        problems.append(f"peak concurrency {report['peak_concurrent']} < 10,000")
    return problems


EXPERIMENT = Experiment(
    "D5 mesh scaling (datacenter mesh)", _points, _report,
    ok="monitors green at every point, base loads completed; saturation "
    "points identified above",
    certify=Certify(lambda: [Task("certify", certify_point, cost=60.0)], _certify_check),
)
