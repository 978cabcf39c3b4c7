"""Delta-debugging shrinker for fuzz reproducers (DESIGN.md §11).

Given a violating :class:`~repro.invariants.fuzz.ScenarioSpec` and a
``reproduces(spec) -> bool`` oracle, shrink the fault schedule with
classic ddmin, then simplify the workload and topology numerically —
all within a bounded number of candidate runs so a pathological oracle
cannot stall the fuzz loop.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace
from typing import Callable

from .fuzz import ScenarioSpec, fault_time


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """True while budget remains (and consumes one run)."""
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def ddmin(
    items: list,
    test: Callable[[list], bool],
    budget: _Budget,
) -> list:
    """Classic delta debugging: the smallest sublist (under chunked
    removal) for which ``test`` still returns True.  ``test(items)``
    is assumed True on entry."""
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk :]
            if not budget.spend():
                return items
            if test(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    if len(items) == 1:
        if budget.spend() and test([]):
            return []
    return items


def _max_host_index(spec: ScenarioSpec) -> int:
    """Largest ``hs_<i>`` index the fault schedule references (targets
    and links alike) — shortening the chain below it would make the
    schedule unappliable, so the shrinker must not try."""
    idx = 0
    for op in spec.faults:
        for field in ("target", "link"):
            name = op.get(field, "")
            if isinstance(name, str) and name.startswith("hs_"):
                idx = max(idx, int(name[3:]))
    return idx


def shrink_spec(
    spec: ScenarioSpec,
    reproduces: Callable[[ScenarioSpec], bool],
    budget: int = 200,
) -> ScenarioSpec:
    """Shrink ``spec`` while ``reproduces`` keeps returning True.

    Order matters for wall-clock: drop fault ops first (each dropped op
    usually removes the most behaviour), then shrink the workload and
    duration (cheapest replays), then the chain length.
    """
    tracker = _Budget(budget)

    # 1. ddmin the fault schedule.
    faults = ddmin(
        list(spec.faults),
        lambda ops: reproduces(replace(spec, faults=list(ops))),
        tracker,
    )
    spec = replace(spec, faults=list(faults))

    # 2. Halve the workload.  Mesh scenarios carry theirs in
    # ``spec.mesh["workload"]`` — shrink connections and per-connection
    # requests together.
    while spec.mesh is not None and tracker.spend():
        mesh = deepcopy(spec.mesh)
        w = mesh.setdefault("workload", {})
        conns = w.get("connections", 200)
        reqs = w.get("requests_per_conn", 2)
        if conns <= 2 and reqs <= 2:
            break
        w["connections"] = max(2, conns // 2)
        w["requests_per_conn"] = max(2, reqs // 2)
        candidate = replace(spec, mesh=mesh)
        if reproduces(candidate):
            spec = candidate
        else:
            break
    while spec.mesh is None and tracker.spend():
        workload = dict(spec.workload)
        if workload.get("kind", "echo") == "echo":
            if workload["total_bytes"] <= 4096:
                break
            workload["total_bytes"] = max(4096, workload["total_bytes"] // 2)
        elif workload.get("kind") == "paced_echo":
            until = workload.get("until", 10.0)
            if until <= 6.0:
                break
            workload["until"] = max(6.0, round(until / 2, 3))
        else:
            if workload.get("nbuf", 1) <= 4:
                break
            workload["nbuf"] = max(4, workload["nbuf"] // 2)
        candidate = replace(spec, workload=workload)
        if reproduces(candidate):
            spec = candidate
        else:
            break

    # 3. Halve the run duration (never below the last fault + margin).
    last_fault = max(map(fault_time, spec.faults), default=0.0)
    floor = max(5.0, last_fault - 2.0 + 5.0)
    while spec.duration > floor and tracker.spend():
        candidate = replace(spec, duration=max(floor, round(spec.duration / 2, 1)))
        if candidate.duration == spec.duration:
            break
        if reproduces(candidate):
            spec = candidate
        else:
            break

    # 4. Shorten the chain (classic testbed only; mesh chain lengths
    # live in the generator parameters, which stay fixed).
    floor_backups = max(0, _max_host_index(spec) - spec.n_spares)
    while spec.mesh is None and spec.n_backups > floor_backups and tracker.spend():
        candidate = replace(spec, n_backups=spec.n_backups - 1)
        if reproduces(candidate):
            spec = candidate
        else:
            break

    return spec
