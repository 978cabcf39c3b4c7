"""Demo D7: comparative replication-backend table (DESIGN.md §15).

Every :class:`~repro.replication.base.ReplicationStrategy` in
``repro.replication.STRATEGIES`` runs the same three probes, so the table answers "what does swapping
the replication discipline cost, and does it still hold up?":

* **overhead** — ttcp throughput through a 2-backup deployment (the
  chain serializes report hops, broadcast parallelizes them,
  checkpoint batches externalization to its interval);
* **fail-over** — primary crash mid-stream: detection-to-promotion
  latency and the longest client-visible stall;
* **partition** — the D4 symmetric split-brain scenario: epoch
  fencing, demotion, and live-rejoin must hold whatever the backend.

The backend list is ``available_strategies()``, not a hand-kept
tuple: a strategy added to ``STRATEGIES`` shows up in this table —
and in the shape check — automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.tables import Table
from repro.replication import available_strategies
from repro.runtime import Task

from . import backups_sweep, failover, partition
from .experiment import Experiment

BACKENDS = available_strategies()

DETECTOR_THRESHOLD = 3
TTCP_BUFLEN = 1024


@dataclass
class BackendRow:
    backend: str
    throughput_kB_s: float
    failover_latency_s: float
    client_stall_s: float
    transfer_complete: bool
    client_events: int
    partition_ok: bool
    partition_problems: list[str]
    segments_fenced: int
    rejoined_as_backup: bool


def run_overhead(backend: str, nbuf: int, n_backups: int = 2, seed: int = 0) -> float:
    """ttcp throughput [kB/s] through ``n_backups`` replicas."""
    return backups_sweep.run_point(
        n_backups, TTCP_BUFLEN, nbuf=nbuf, seed=seed, strategy=backend
    )


def run_failover(backend: str, seed: int = 0) -> failover.FailoverOutcome:
    """Primary crash mid-stream under this backend."""
    return failover.run_crash_failover(
        DETECTOR_THRESHOLD, seed=seed, strategy=backend
    )


def run_partition_probe(backend: str, seed: int = 0) -> dict:
    """The D4 symmetric partition scenario under this backend, reduced
    to the verdict bits the comparison table needs (the full
    PartitionRunResult stays in :mod:`.partition`)."""
    result = partition.run_partition("symmetric", seed=seed, strategy=backend)
    problems = partition.check_shape(result)
    return {
        "ok": not problems,
        "problems": problems,
        "segments_fenced": result.segments_fenced,
        "rejoined_as_backup": result.rejoined_as_backup,
    }


def _assemble(
    backend: str, throughput: float, crash: failover.FailoverOutcome, part: dict
) -> BackendRow:
    return BackendRow(
        backend=backend,
        throughput_kB_s=round(throughput, 1),
        failover_latency_s=round(crash.failover_latency, 2),
        client_stall_s=round(crash.client_stall, 2),
        transfer_complete=crash.transfer_complete,
        client_events=len(crash.client_events),
        partition_ok=part["ok"],
        partition_problems=part["problems"],
        segments_fenced=part["segments_fenced"],
        rejoined_as_backup=part["rejoined_as_backup"],
    )


def check_shape(rows: list[BackendRow]) -> list[str]:
    problems = []
    by_name = {row.backend: row for row in rows}
    for row in rows:
        if row.throughput_kB_s <= 0:
            problems.append(f"{row.backend}: no ttcp throughput")
        if not row.transfer_complete:
            problems.append(f"{row.backend}: fail-over transfer incomplete")
        if row.client_events:
            problems.append(
                f"{row.backend}: client saw {row.client_events} connection "
                f"event(s) across the fail-over"
            )
        if not row.partition_ok:
            problems.extend(
                f"{row.backend}: partition: {p}" for p in row.partition_problems
            )
    chain = by_name.get("chain")
    checkpoint = by_name.get("checkpoint")
    if chain and checkpoint and checkpoint.throughput_kB_s > chain.throughput_kB_s:
        # Checkpointing defers externalization to interval boundaries;
        # batching its way *past* the eagerly-gated chain would mean
        # the interval gate stopped doing anything.
        problems.append(
            f"checkpoint throughput ({checkpoint.throughput_kB_s}) beat the "
            f"chain ({chain.throughput_kB_s}): interval gating is not biting"
        )
    return problems


def _nbuf(fast: bool) -> int:
    return 64 if fast else 256


def _points(fast: bool) -> list[Task]:
    """Three probes per backend."""
    nbuf = _nbuf(fast)
    return [
        task
        for b in BACKENDS
        for task in (
            Task(f"ttcp@{b}", run_overhead, kwargs={"backend": b, "nbuf": nbuf},
                 cost=nbuf * 1.3e-4),
            Task(f"failover@{b}", run_failover, kwargs={"backend": b}, cost=0.02),
            # Two 90-simulated-second runs (faulty + baseline).
            Task(f"partition@{b}", run_partition_probe, kwargs={"backend": b}, cost=0.3),
        )
    ]


def _report(fast: bool, values: dict) -> list[str]:
    rows = [
        _assemble(b, *(values[f"{probe}@{b}"] for probe in ("ttcp", "failover", "partition")))
        for b in BACKENDS
    ]
    table = Table(
        f"D7: replication backends compared (ttcp {TTCP_BUFLEN}B x {_nbuf(fast)}, "
        "2 backups; crash + symmetric partition probes)",
        [
            "backend",
            "ttcp [kB/s]",
            "failover [s]",
            "stall [s]",
            "complete",
            "partition",
        ],
    )
    for row in rows:
        table.add_row(
            [
                row.backend,
                f"{row.throughput_kB_s:.1f}",
                f"{row.failover_latency_s:.2f}",
                f"{row.client_stall_s:.2f}",
                row.transfer_complete,
                "PASS" if row.partition_ok else "FAIL",
            ]
        )
    print(table)
    return check_shape(rows)


EXPERIMENT = Experiment(
    "D7 replication backends", _points, _report,
    ok="every backend survives crash + partition with the client untouched",
)
