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

Run with:  python -m repro.experiments.recovery
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from repro.core import DetectorParams
from repro.faults.injection import FaultPlan
from repro.metrics.recovery import summarize_incidents
from repro.metrics.tables import Table
from repro.recovery import RecoveryManager, SparePool

from .testbeds import build_ft_system

TARGET_DEGREE = 2
CYCLE_PERIOD = 30.0
DOWNTIME = 8.0


def _echo_factory(host_server):
    def on_accept(conn):
        conn.on_data = conn.send
        conn.on_remote_close = conn.close

    return on_accept


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
        factory=_echo_factory,
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

        conn = system.client_node.connect(system.service_ip, system.port)
        received = bytearray()
        sent = bytearray()
        conn.on_data = received.extend
        events: list[str] = []
        conn.on_closed = lambda reason: events.append(f"closed:{reason}")
        conn.on_remote_close = lambda: events.append("remote-close")
        counter = [0]

        def pump():
            if system.sim.now >= traffic_until:
                return
            data = bytes([counter[0] % 256]) * 400
            conn.send(data)
            sent.extend(data)
            counter[0] += 1
            system.sim.schedule(0.05, pump)

        system.sim.schedule(2.5, pump)
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
            bytes_sent=len(sent),
            bytes_received=len(received),
            stream_intact=bytes(received) == bytes(sent),
            client_events=events,
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


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    cycles = 1 if "--fast" in args else 2
    result = run_recovery_cycles(cycles=cycles)

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

    problems = check_shape(result)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nShape check: OK (every failure repaired autonomously, "
          "client never disturbed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
