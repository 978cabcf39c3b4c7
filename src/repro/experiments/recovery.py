"""Demo D3: autonomous redundancy restoration (recovery subsystem).

EXTENSION beyond the paper — its §6 lists reintegration of recovered
servers as future work; DESIGN.md §8 describes the subsystem.

A long-horizon run with continuous client traffic and repeated
crash/recover cycles alternating between two hosts, so both failure
modes are exercised: a *primary* crash (detected by the client's
retransmissions) and a *tail-backup* crash (detected by the
predecessor's liveness check on the acknowledgement channel).  A
:class:`~repro.recovery.RecoveryManager` watches the redirector's
management plane and, after every failure, drafts a spare and runs the
live-join protocol; each recovered host is returned to the spare pool
and covers the next failure.

Reported per incident: MTTR (degradation -> chain back at target
degree), catch-up duration, connections transferred, and state-transfer
bytes; plus the availability at target degree over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.echo import EchoStream, echo_server_factory
from repro.core import DetectorParams
from repro.faults.injection import FaultPlan
from repro.metrics.recovery import summarize_incidents
from repro.metrics.tables import Table
from repro.recovery import RecoveryManager, SparePool
from repro.runtime import Task

from .experiment import Experiment
from .testbeds import build_ft_system

TARGET_DEGREE = 2
CYCLE_PERIOD = 30.0
DOWNTIME = 8.0


@dataclass
class RecoveryRunResult:
    cycles: int
    horizon: float
    joins_started: int
    joins_completed: int
    joins_aborted: int
    incidents: list
    availability: float
    final_degree: int
    bytes_sent: int
    bytes_received: int
    stream_intact: bool
    client_events: list[str]


def run_recovery_cycles(cycles: int = 2, seed: int = 0) -> RecoveryRunResult:
    """``cycles`` crash/recover rounds per host (2 incidents each)."""
    with build_ft_system(
        seed=seed,
        n_backups=1,
        n_spares=1,
        detector=DetectorParams(threshold=3, cooldown=1.0),
        factory=echo_server_factory,
    ) as system:
        manager = RecoveryManager(
            system.service,
            system.redirector_daemon,
            SparePool(system.spare_nodes),
            target_degree=TARGET_DEGREE,
        )
        plan = FaultPlan(system.sim)
        # hs_0 starts as primary, hs_1 as backup; after the first two
        # incidents the crashes land on whatever role the host holds then.
        plan.crash_cycle(system.servers[0], start=5.0, period=CYCLE_PERIOD,
                         downtime=DOWNTIME, count=cycles)
        plan.crash_cycle(system.servers[1], start=20.0, period=CYCLE_PERIOD,
                         downtime=DOWNTIME, count=cycles)
        # Each recovered host goes back to the spare pool shortly after its
        # reboot (an operator action; 0.5s of slack after recover()).
        for i in range(cycles):
            for idx, start in ((0, 5.0), (1, 20.0)):
                node = system.nodes[idx]
                system.sim.schedule_at(
                    start + i * CYCLE_PERIOD + DOWNTIME + 0.5,
                    lambda node=node: manager.return_spare(node),
                )

        last_recovery = 20.0 + (cycles - 1) * CYCLE_PERIOD + DOWNTIME
        horizon = last_recovery + 40.0
        traffic_until = horizon - 25.0

        stream = EchoStream(system.client_node, system.service_ip, system.port,
                            chunk=400, every=0.05, start=4.5, until=traffic_until)
        system.run_until(horizon)

        return RecoveryRunResult(
            cycles=cycles,
            horizon=horizon,
            joins_started=manager.joins_started,
            joins_completed=manager.joins_completed,
            joins_aborted=manager.joins_aborted,
            incidents=list(manager.incidents),
            availability=manager.timeline.availability(TARGET_DEGREE, until=horizon),
            final_degree=manager.timeline.degree_at(system.sim.now),
            bytes_sent=len(stream.sent),
            bytes_received=len(stream.received),
            stream_intact=stream.received == stream.sent,
            client_events=stream.events,
        )


def check_shape(result: RecoveryRunResult) -> list[str]:
    problems = []
    expected_incidents = 2 * result.cycles
    if result.joins_completed != expected_incidents:
        problems.append(
            f"expected {expected_incidents} completed joins, "
            f"got {result.joins_completed} "
            f"(started {result.joins_started}, aborted {result.joins_aborted})"
        )
    if len(result.incidents) != result.joins_completed:
        problems.append(
            f"{result.joins_completed} joins but {len(result.incidents)} incidents"
        )
    for i, incident in enumerate(result.incidents):
        if not 0 < incident.mttr < CYCLE_PERIOD:
            problems.append(f"incident {i}: implausible MTTR {incident.mttr:.2f}s")
        if incident.catchup_duration > incident.mttr:
            problems.append(f"incident {i}: catch-up longer than MTTR")
        if incident.transfer_bytes <= 0:
            problems.append(f"incident {i}: no state transferred")
    if result.final_degree != TARGET_DEGREE:
        problems.append(f"final degree {result.final_degree} != {TARGET_DEGREE}")
    if not 0.5 < result.availability < 1.0:
        problems.append(f"implausible availability {result.availability:.3f}")
    if not result.stream_intact:
        problems.append(
            f"client stream corrupted or incomplete "
            f"({result.bytes_received}/{result.bytes_sent} bytes)"
        )
    if result.client_events:
        problems.append(f"client saw connection events: {result.client_events}")
    return problems


def _points(fast: bool) -> list[Task]:
    cycles = 1 if fast else 2
    return [Task("run", run_recovery_cycles, kwargs={"cycles": cycles}, cost=cycles * 0.12)]


def _report(fast: bool, values: dict) -> list[str]:
    result = values["run"]
    table = Table(
        "D3: recovery incidents (alternating primary/backup crashes, "
        f"target degree {TARGET_DEGREE}, one spare)",
        ["incident", "MTTR [s]", "catch-up [s]", "conns", "transfer [B]"],
    )
    for i, incident in enumerate(result.incidents):
        table.add_row(
            [
                i,
                f"{incident.mttr:.2f}",
                f"{incident.catchup_duration:.3f}",
                incident.connections_transferred,
                incident.transfer_bytes,
            ]
        )
    print(table)
    summary = summarize_incidents(result.incidents)
    print()
    print(f"joins: {result.joins_completed} completed / "
          f"{result.joins_started} started / {result.joins_aborted} aborted")
    print(f"mean MTTR: {summary['mean_mttr']:.2f}s   "
          f"max MTTR: {summary['max_mttr']:.2f}s   "
          f"mean catch-up: {summary['mean_catchup']:.3f}s")
    print(f"state transferred: {summary['transfer_bytes']} bytes over "
          f"{summary['connections_transferred']} connection transfers")
    print(f"availability at degree {TARGET_DEGREE}: {result.availability:.4f} "
          f"(horizon {result.horizon:.0f}s)")
    print(f"client stream: {result.bytes_received}/{result.bytes_sent} bytes, "
          f"{'intact' if result.stream_intact else 'CORRUPT'}")
    return check_shape(result)


EXPERIMENT = Experiment(
    "D3 autonomous recovery (live state transfer)", _points, _report,
    ok="every failure repaired autonomously, client never disturbed",
)
