"""The five workloads of the perf ledger (README.md §Workloads).

Each workload turns ``(seed, scale)`` into plain inputs, builds a fresh
system from them, runs it, and reduces the outcome to the operations
attempted and failed, a deterministic digest, and the simulated-side
numbers.  ``build`` and ``run`` are timed separately by ``run.py``;
nothing here reads the clock.

Only surfaces expected to survive the ROADMAP's simplification round
are imported: the testbed builders and ``TtcpRun.run``, the topology
generator and mesh scenario driver, and the fuzzer's
``generate_spec`` / ``run_scenario``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: Equal across repetitions of the same inputs, or the run is wrong.
    digest: tuple
    #: Simulated-side results (deterministic): name -> value.
    sim: dict
    #: Why operations failed, for the one-line reason on exit.
    reasons: list


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(round(full * scale)))


class _Bulk:
    """One ttcp transfer over a Figure-4 testbed."""

    #: Imported in a fresh interpreter to measure import time.
    modules = ("repro.experiments.testbeds",)
    buflen = 1024
    nbuf = 16384
    warmup_nbuf = 1024

    def builder(self, seed: int):
        raise NotImplementedError

    def inputs(self, seed: int, scale: float, warmup: bool = False) -> dict:
        # The testbeds are loss-free, so the simulator seed changes
        # nothing; the transfer length is what the seed varies (by at
        # most 0.2 %, far inside the timing noise).
        jitter = random.Random(f"{self.name}:{seed}").randrange(-32, 33)
        nbuf = _scaled(self.warmup_nbuf if warmup else self.nbuf, scale, 64 + 32)
        return {"seed": seed, "buflen": self.buflen, "nbuf": nbuf + jitter}

    def build(self, inputs: dict):
        return self.builder(inputs["seed"])

    def run(self, system, inputs: dict):
        return system.run(buflen=inputs["buflen"], nbuf=inputs["nbuf"])

    def outcome(self, system, inputs: dict, result) -> Outcome:
        sim = system.sim
        return Outcome(
            attempted=1,
            failed=0 if result.completed else 1,
            digest=(
                sim.events_processed,
                repr(sim.now),
                result.bytes_sent,
                repr(result.throughput_kB_per_sec),
                result.retransmitted_segments,
                result.rto_timeouts,
            ),
            sim={
                "sim_goodput_kBps": result.throughput_kB_per_sec,
                "events": sim.events_processed,
                "peak_queue_len": sim.peak_queue_len,
                "payload_bytes": result.bytes_sent,
            },
            reasons=[] if result.completed else ["ttcp transfer did not complete"],
        )


class BulkChain(_Bulk):
    name = "bulk_chain"

    def builder(self, seed):
        from repro.experiments.testbeds import build_primary_backup

        return build_primary_backup(seed, n_backups=2, strategy="chain")


class BulkClean(_Bulk):
    name = "bulk_clean"

    def builder(self, seed):
        from repro.experiments.testbeds import build_clean

        return build_clean(seed)


class SmallStar(_Bulk):
    name = "small_star"
    buflen = 64

    def builder(self, seed):
        from repro.experiments.testbeds import build_primary_backup

        return build_primary_backup(seed, n_backups=2, strategy="broadcast")


class MeshEcho:
    name = "mesh_echo"
    modules = ("repro.topo",)
    topology = dict(
        pods=4,
        edges_per_pod=2,
        servers_per_edge=3,
        clients_per_edge=2,
        cores=2,
        services=32,
        backups=1,
    )
    connections = 1200
    warmup_connections = 120

    def inputs(self, seed: int, scale: float, warmup: bool = False) -> dict:
        connections = self.warmup_connections if warmup else self.connections
        return {
            "seed": seed,
            "workload": dict(
                connections=_scaled(connections, scale, 24),
                requests_per_conn=2,
                request_size=64,
                think_time=0.15,
                start_window=0.25,
                deadline=120.0,
            ),
        }

    def build(self, inputs: dict):
        from repro.topo import MeshScenario, MeshWorkload, generate

        spec = generate("fat_tree", dict(self.topology), seed=inputs["seed"])
        return MeshScenario(spec, MeshWorkload(**inputs["workload"]))

    def run(self, system, inputs: dict):
        return system.run()

    def outcome(self, system, inputs: dict, report) -> Outcome:
        sim = system.mesh.sim
        bad = sum(1 for c in system.clients if not c.done or c.stats.errors)
        reasons = []
        if bad:
            reasons.append(f"{bad} mesh connections incomplete or in error")
        if report.violations:
            reasons.append(f"monitors violated: {report.violations[:2]}")
        size = inputs["workload"]["request_size"]
        answered = sum(c.stats.responses_received for c in system.clients)
        return Outcome(
            attempted=len(system.clients),
            failed=bad + len(report.violations),
            digest=(report.events_processed, repr(report.sim_seconds), report.fingerprint),
            sim={
                # What a connection gets at the 95th-percentile response
                # time: request payload per simulated second of waiting.
                "sim_goodput_kBps": (
                    size / report.p95_response / 1000.0 if report.p95_response else 0.0
                ),
                "sim_p50_ms": report.median_response * 1000.0,
                "sim_p95_ms": report.p95_response * 1000.0,
                "events": report.events_processed,
                "peak_queue_len": sim.peak_queue_len,
                "payload_bytes": answered * size,
            },
            reasons=reasons,
        )


class FaultChurn:
    name = "fault_churn"
    modules = ("repro.invariants.fuzz",)
    #: (class, generate_spec options, scenarios per repetition, seed pool).
    #: Scenario seeds are sampled from pools swept clean at the commit
    #: that added the benchmark (README.md §Known limits): the fuzzer
    #: still finds real violations on rare seeds, and a workload must
    #: not contain operations that fail.
    mix = (
        ("classic", {}, 40, 2000),
        ("gray", {"gray": True}, 20, 1000),
        ("broadcast", {"backend": "broadcast"}, 10, 600),
        ("checkpoint", {"backend": "checkpoint"}, 10, 600),
    )
    #: Scenarios per class that ``--seed`` picks; the rest of the mix is
    #: the same for every seed.  Scenario cost is heavy-tailed (a gray
    #: scenario takes 0.03-0.33 s), so 80 freshly drawn scenarios would
    #: move wall_s by 10 % from seed to seed, more than any change this
    #: ledger is meant to resolve.
    seed_drawn = 1
    #: Seeds on which the checkpoint backend violates output-ordering today.
    known_violating = {"checkpoint": frozenset({37, 112, 254, 449})}

    def _usable(self, rng, cls, options, pool, count, exclude) -> list:
        """The first ``count`` usable scenarios among seeds ``rng`` samples."""
        from repro.invariants.fuzz import generate_spec, run_scenario

        specs = []
        for scenario_seed in rng.sample(range(pool), count + 16):
            if len(specs) == count:
                break
            if scenario_seed in exclude:
                continue
            spec = generate_spec(scenario_seed, **options)
            # About one generated schedule in 150 is refused by the
            # fault plan's own validation (overlapping windows).  A
            # zero-length dry run finds those: rejected input is not
            # part of the workload.
            try:
                run_scenario(dataclasses.replace(spec, duration=0.0))
            except ValueError:
                continue
            specs.append(spec)
        return specs

    def inputs(self, seed: int, scale: float, warmup: bool = False) -> dict:
        if warmup:
            scale *= 0.1
        specs = []
        for cls, options, count, pool in self.mix:
            want = _scaled(count, scale, 1)
            drawn = min(self.seed_drawn, want)
            exclude = set(self.known_violating.get(cls, ()))
            core = self._usable(
                random.Random(f"{self.name}:{cls}"), cls, options, pool, want - drawn, exclude
            )
            exclude.update(spec.seed for spec in core)
            specs += core + self._usable(
                random.Random(f"{self.name}:{cls}:{seed}"), cls, options, pool, drawn, exclude
            )
        return {"seed": seed, "specs": specs}

    def build(self, inputs: dict):
        return None  # every scenario builds its own system inside run

    def run(self, system, inputs: dict):
        from repro.invariants.fuzz import run_scenario

        results = []
        for spec in inputs["specs"]:
            try:
                results.append(run_scenario(spec))
            except Exception as exc:  # a scenario that raises is a failed operation
                results.append(exc)
        return results

    def outcome(self, system, inputs: dict, results) -> Outcome:
        reasons, digest, delivered = [], [], 0
        for spec, result in zip(inputs["specs"], results):
            if isinstance(result, Exception):
                reasons.append(f"scenario {spec.seed} raised {result!r}")
                digest.append((spec.seed, "raised"))
                continue
            if result.violated_monitors:
                reasons.append(f"scenario {spec.seed} violated {result.violated_monitors}")
            digest.append((spec.seed, result.fingerprint, result.client_received))
            delivered += result.client_received
        budget = sum(spec.duration for spec in inputs["specs"])
        return Outcome(
            attempted=len(results),
            failed=len(reasons),
            digest=tuple(digest),
            sim={
                # Bytes echoed to the clients per simulated second of scenario budget.
                "sim_goodput_kBps": delivered / 1000.0 / budget,
                "sim_delivered_kB": delivered / 1000.0,
                "payload_bytes": delivered,
            },
            reasons=reasons,
        )


WORKLOADS = {w.name: w for w in (BulkChain(), BulkClean(), SmallStar(), MeshEcho(), FaultChurn())}
