"""Ablation A2 + Demo D1: fail-over behaviour.

A2 sweeps the failure detector's retransmission threshold (paper §4.3:
"a trade-off between detection latency and chance of false positives")
and measures:

* *fail-over latency* — primary crash → backup promoted;
* *client stall* — the longest gap in the client's byte stream;
* *false positives* — reconfigurations triggered by a congestion burst
  when no server failed.

D1 demonstrates client transparency: a continuous stream crosses a
primary crash with no client-visible connection event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.echo import EchoStream
from repro.core import DetectorParams
from repro.faults.injection import FaultPlan
from repro.metrics.tables import Table
from repro.runtime import Task

from .experiment import Experiment
from .testbeds import build_ft_system


@dataclass
class FailoverOutcome:
    threshold: int
    detected: bool
    failover_latency: float
    client_stall: float
    transfer_complete: bool
    client_events: list[str]


@dataclass
class FalsePositiveOutcome:
    threshold: int
    failure_reports: int
    reconfigurations: int
    spurious_shutdowns: int


def _streaming_client(system, total_bytes: int = 200_000):
    """A bulk stream, plus the gaps in its ACK progress: a fail-over
    shows up as a stall in the client's ``snd_una``."""
    stream = EchoStream(
        system.client_node, system.service_ip, system.port, total_bytes=total_bytes
    )
    conn, gaps, last = stream.conn, [0.0], [system.sim.now, 0]

    def track_progress():
        if conn.snd_una > last[1]:
            gaps.append(system.sim.now - last[0])
            last[:] = system.sim.now, conn.snd_una
        if conn.snd_una < total_bytes and system.sim.pending_events:
            system.sim.schedule(0.05, track_progress)

    system.sim.schedule(0.05, track_progress)
    return stream, gaps


def promotion_watch(system, crash_at: float) -> dict:
    """Poll every 50 ms from ``crash_at`` (absolute) until the first
    backup is primary; the returned dict gets its time under ``"t"``."""
    promoted_at: dict = {}

    def watch():
        if system.service.replicas[1].ft_port.is_primary:
            promoted_at["t"] = system.sim.now
        else:
            system.sim.schedule(0.05, watch)

    system.sim.schedule_at(crash_at, watch)
    return promoted_at


def run_crash_failover(
    threshold: int,
    # Traffic starts right after registration settles at t=2.0; crash
    # while the transfer is clearly in flight.
    crash_at: float = 2.2,
    seed: int = 0,
    total_bytes: int = 200_000,
    horizon: float = 120.0,
    strategy: str = "chain",
) -> FailoverOutcome:
    """Primary crashes mid-transfer; measure detection and recovery."""
    with build_ft_system(
        seed=seed,
        n_backups=1,
        detector=DetectorParams(threshold=threshold, cooldown=1.0),
        strategy=strategy,
    ) as system:
        stream, gaps = _streaming_client(system, total_bytes)
        plan = FaultPlan(system.sim)
        plan.crash_at(system.servers[0], crash_at)
        promoted_at = promotion_watch(system, crash_at)
        system.run_until(horizon)
        detected = "t" in promoted_at
        return FailoverOutcome(
            threshold=threshold,
            detected=detected,
            failover_latency=(promoted_at["t"] - crash_at) if detected else float("inf"),
            client_stall=max(gaps),
            transfer_complete=stream.conn.snd_una >= total_bytes,
            client_events=stream.events,
        )


def run_congestion_false_positive(
    threshold: int,
    seed: int = 0,
    horizon: float = 60.0,
) -> FalsePositiveOutcome:
    """No crash — just a 3 s loss burst toward the primary from
    t = 2.5 s.  Low thresholds misread the client's retransmissions as
    a server failure."""
    with build_ft_system(
        seed=seed,
        n_backups=1,
        detector=DetectorParams(threshold=threshold, cooldown=1.0),
    ) as system:
        _streaming_client(system, total_bytes=400_000)
        plan = FaultPlan(system.sim)
        link = system.topo.find_link("redirector", "hs_0")
        plan.loss_burst(link, 2.5, 3.0, loss_rate=0.6)
        system.run_until(horizon)
        shutdowns = sum(
            1 for handle in system.service.replicas if handle.ft_port.shut_down
        )
        return FalsePositiveOutcome(
            threshold=threshold,
            failure_reports=sum(n.daemon.failure_reports_sent for n in system.nodes),
            reconfigurations=system.redirector_daemon.reconfigurations,
            spurious_shutdowns=shutdowns,
        )


def check_shape(crashes: list[FailoverOutcome]) -> list[str]:
    problems = []
    for outcome in crashes:
        if not outcome.detected:
            problems.append(f"threshold {outcome.threshold}: crash never detected")
        if not outcome.transfer_complete:
            problems.append(f"threshold {outcome.threshold}: transfer incomplete")
        if any(e.startswith("closed") or e == "remote-close" for e in outcome.client_events):
            problems.append(
                f"threshold {outcome.threshold}: client saw {outcome.client_events}"
            )
    latencies = [o.failover_latency for o in crashes if o.detected]
    if latencies and latencies != sorted(latencies):
        problems.append(f"fail-over latency not monotone in threshold: {latencies}")
    return problems


def _thresholds(fast: bool) -> tuple[int, ...]:
    return (2, 4) if fast else (2, 4, 6, 8)


def _points(fast: bool) -> list[Task]:
    thresholds = _thresholds(fast)
    return [
        Task(f"crash@{t}", run_crash_failover, kwargs={"threshold": t}, cost=0.02)
        for t in thresholds
    ] + [
        Task(f"false-positive@{t}", run_congestion_false_positive, kwargs={"threshold": t},
             cost=0.06)
        for t in thresholds
    ]


def _report(fast: bool, values: dict) -> list[str]:
    thresholds = _thresholds(fast)
    crashes = [values[f"crash@{t}"] for t in thresholds]
    table = Table(
        "A2: detector threshold trade-off (primary crash mid-transfer)",
        ["threshold", "failover latency [s]", "client stall [s]", "complete", "client events"],
    )
    for outcome in crashes:
        table.add_row(
            [
                outcome.threshold,
                f"{outcome.failover_latency:.2f}",
                f"{outcome.client_stall:.2f}",
                outcome.transfer_complete,
                len(outcome.client_events),
            ]
        )
    print(table)
    print()
    table2 = Table(
        "A2b: false positives under a 3s congestion burst (no crash)",
        ["threshold", "failure reports", "reconfigurations", "spurious shutdowns"],
    )
    for t in thresholds:
        outcome = values[f"false-positive@{t}"]
        table2.add_row(
            [
                outcome.threshold,
                outcome.failure_reports,
                outcome.reconfigurations,
                outcome.spurious_shutdowns,
            ]
        )
    print(table2)
    return check_shape(crashes)


EXPERIMENT = Experiment(
    "A2 fail-over / detector threshold", _points, _report,
    ok="every crash detected, client fully transparent",
)
