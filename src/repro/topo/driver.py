"""Many-service scenario driver (DESIGN.md §13).

Runs a client workload — hundreds of replicated echo services, tens of
thousands of concurrent connections — over a compiled mesh, with the
invariant monitors armed on every redirector, and reduces the outcome
to a deterministic fingerprint: per-connection results, the canonical
stream digests, the mesh counters.  The fingerprint is the equality
gate the ``mesh_scaling`` experiment uses across ``--jobs`` levels, and
the module-level :func:`mesh_task` is the plain-data entry point a
:class:`~repro.runtime.ScenarioPool` worker can execute.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.apps.echo import EchoClient
from repro.invariants.monitors import attach_mesh_invariants
from repro.netsim.simulator import Disposable

from .build import CompiledMesh, compile_spec
from .generators import generate
from .spec import TopologySpec


@dataclass
class MeshWorkload:
    """The client side of a mesh scenario."""

    connections: int = 200
    requests_per_conn: int = 2
    request_size: int = 32
    think_time: float = 0.02
    #: Connection starts are staggered uniformly over this window; with
    #: a per-connection lifetime longer than the window, every
    #: connection is concurrently open at some instant.
    start_window: float = 0.25
    #: Simulated-time budget; connections still open at the deadline
    #: count as incomplete.
    deadline: float = 60.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MeshReport:
    """Deterministic outcome of one mesh scenario."""

    spec_name: str
    spec_fingerprint: str
    connections: int
    completed: int
    errors: int
    #: Maximum number of simultaneously open connections.
    peak_concurrent: int
    #: Simulated seconds from first connect to last completion.
    sim_seconds: float
    #: Response-time distribution over all requests (simulated seconds).
    median_response: float
    p95_response: float
    violations: list[str] = field(default_factory=list)
    mesh_counters: dict = field(default_factory=dict)
    events_processed: int = 0
    fingerprint: str = ""

    @property
    def green(self) -> bool:
        return not self.violations and self.completed == self.connections

    def to_dict(self) -> dict:
        return {**asdict(self), "green": self.green}


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


class MeshScenario(Disposable):
    """One workload run over one compiled mesh."""

    def __init__(
        self,
        spec: TopologySpec,
        workload: Optional[MeshWorkload] = None,
    ):
        self.spec = spec
        self.workload = workload or MeshWorkload()
        self.mesh: CompiledMesh = compile_spec(spec)
        self.invariants = attach_mesh_invariants(self.mesh.sim, self.mesh.services)
        self.clients: list[EchoClient] = []

    def dispose(self) -> None:
        self.mesh.dispose()

    # -- workload ------------------------------------------------------

    def _spawn_clients(self) -> None:
        mesh, w = self.mesh, self.workload
        client_names = sorted(mesh.clients)
        if not client_names:
            raise ValueError(f"spec {self.spec.name!r} declares no client hosts")
        points = mesh.service_points
        rng = random.Random(self.spec.seed ^ 0x6D657368)  # "mesh"
        nodes = {name: mesh.client_node(name) for name in client_names}
        for i in range(w.connections):
            host = client_names[i % len(client_names)]
            service_ip, port = points[i % len(points)]
            client = EchoClient(
                nodes[host],
                service_ip,
                port=port,
                request_size=w.request_size,
                n_requests=w.requests_per_conn,
                think_time=w.think_time,
            )
            self.clients.append(client)
            start_at = rng.uniform(0.0, w.start_window)
            mesh.sim.schedule(start_at, self._start_client, client)

    def _start_client(self, client: EchoClient) -> None:
        client.start()

    def _peak_concurrency(self) -> int:
        # Connections never closed by the deadline still count as open
        # to the end of the run.
        horizon = self.mesh.sim.now
        events: list[tuple[float, int]] = []
        for client in self.clients:
            if client.closed_at is None:
                events += ((0.0, 1), (horizon, -1))
            else:
                events += ((client.opened_at, 1), (client.closed_at, -1))
        events.sort()
        peak = current = 0
        for _t, delta in events:
            current += delta
            peak = max(peak, current)
        return peak

    # -- execution -----------------------------------------------------

    def run(self) -> MeshReport:
        sim = self.mesh.sim
        started_at = sim.now
        self._spawn_clients()
        deadline = started_at + self.workload.deadline
        while sim.now < deadline:
            if all(c.done for c in self.clients):
                break
            sim.run(until=min(deadline, sim.now + 0.5))
        return self._report(started_at)

    def _report(self, started_at: float) -> MeshReport:
        sim = self.mesh.sim
        responses: list[float] = []
        completed = errors = 0
        per_client = []
        for i, client in enumerate(self.clients):
            stats = client.stats
            responses.extend(stats.response_times)
            if client.done:
                completed += 1
            if stats.errors:
                errors += 1
            per_client.append(
                [
                    i,
                    str(client.server_ip),
                    client.port,
                    stats.requests_sent,
                    stats.responses_received,
                    len(stats.errors),
                    repr(sum(stats.response_times)),
                ]
            )
        responses.sort()
        violations = [str(v) for v in self.invariants.violations]
        digest = self.invariants.stream_integrity.digest()
        counters = self.mesh.mesh_counters()
        payload = json.dumps(
            {
                "spec": self.spec.fingerprint(),
                "workload": self.workload.to_dict(),
                "clients": per_client,
                "streams": digest,
                "violations": violations,
                "counters": counters,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return MeshReport(
            spec_name=self.spec.name,
            spec_fingerprint=self.spec.fingerprint(),
            connections=len(self.clients),
            completed=completed,
            errors=errors,
            peak_concurrent=self._peak_concurrency(),
            sim_seconds=round(sim.now - started_at, 9),
            median_response=round(_quantile(responses, 0.5), 9),
            p95_response=round(_quantile(responses, 0.95), 9),
            violations=violations,
            mesh_counters=counters,
            events_processed=sim.events_processed,
            fingerprint=hashlib.sha256(payload.encode()).hexdigest(),
        )


def run_mesh_scenario(
    spec: TopologySpec, workload: Optional[MeshWorkload] = None
) -> MeshReport:
    with MeshScenario(spec, workload) as scenario:
        return scenario.run()


def mesh_task(kind: str, gen_params: dict, workload_params: dict, seed: int = 0) -> dict:
    """Pool-worker entry point: plain data in, plain data out."""
    spec = generate(kind, gen_params, seed=seed)
    workload = MeshWorkload(**workload_params)
    return run_mesh_scenario(spec, workload).to_dict()
