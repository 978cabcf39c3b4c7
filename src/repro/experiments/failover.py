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

Run with:  python -m repro.experiments.failover
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import DetectorParams
from repro.faults.injection import FaultPlan
from repro.metrics.tables import Table

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


def _streaming_client(system, total_bytes: int = 200_000, chunk: int = 2048):
    conn = system.client_node.connect(system.service_ip, system.port)
    got = {"bytes": 0, "last_progress": [system.sim.now], "gaps": [0.0]}
    events: list[str] = []
    payload = bytes(i % 256 for i in range(total_bytes))
    sent = {"n": 0}

    def pump():
        while sent["n"] < total_bytes:
            n = conn.send(payload[sent["n"] : sent["n"] + chunk])
            sent["n"] += n
            if n == 0:
                break

    def track_progress():
        # Track ACK progress at the client: a fail-over shows up as a
        # stall in snd_una advancement.
        advanced = conn.snd_una > got["bytes"]
        if advanced:
            gap = system.sim.now - got["last_progress"][0]
            got["gaps"].append(gap)
            got["last_progress"][0] = system.sim.now
            got["bytes"] = conn.snd_una
        if conn.snd_una < total_bytes and system.sim.pending_events:
            system.sim.schedule(0.05, track_progress)

    conn.on_established = pump
    conn.on_send_space = pump
    conn.on_closed = lambda reason: events.append(f"closed:{reason}")
    conn.on_remote_close = lambda: events.append("remote-close")
    system.sim.schedule(0.05, track_progress)
    return conn, got, events


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
        conn, got, events = _streaming_client(system, total_bytes)
        plan = FaultPlan(system.sim)
        plan.crash_at(system.servers[0], crash_at)
        promoted_at = {}

        def watch_promotion():
            if system.service.replicas[1].ft_port.is_primary:
                promoted_at["t"] = system.sim.now
            else:
                system.sim.schedule(0.05, watch_promotion)

        system.sim.schedule(crash_at, watch_promotion)
        system.run_until(horizon)
        detected = "t" in promoted_at
        return FailoverOutcome(
            threshold=threshold,
            detected=detected,
            failover_latency=(promoted_at["t"] - crash_at) if detected else float("inf"),
            client_stall=max(got["gaps"]),
            transfer_complete=conn.snd_una >= total_bytes,
            client_events=events,
        )


def run_congestion_false_positive(
    threshold: int,
    burst_at: float = 2.5,
    burst_duration: float = 3.0,
    seed: int = 0,
    horizon: float = 60.0,
) -> FalsePositiveOutcome:
    """No crash — just a loss burst toward the primary.  Low thresholds
    misread the client's retransmissions as a server failure."""
    with build_ft_system(
        seed=seed,
        n_backups=1,
        detector=DetectorParams(threshold=threshold, cooldown=1.0),
    ) as system:
        _conn, _got, _events = _streaming_client(system, total_bytes=400_000)
        plan = FaultPlan(system.sim)
        link = system.topo.find_link("redirector", "hs_0")
        plan.loss_burst(link, burst_at, burst_duration, loss_rate=0.6)
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


def run_threshold_sweep(
    thresholds: Sequence[int] = (2, 4, 6, 8),
    seed: int = 0,
) -> tuple[list[FailoverOutcome], list[FalsePositiveOutcome]]:
    crashes = [run_crash_failover(t, seed=seed) for t in thresholds]
    false_pos = [run_congestion_false_positive(t, seed=seed) for t in thresholds]
    return crashes, false_pos


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


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    thresholds = (2, 4) if "--fast" in args else (2, 4, 6, 8)
    crashes, false_pos = run_threshold_sweep(thresholds=thresholds)
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
    for outcome in false_pos:
        table2.add_row(
            [
                outcome.threshold,
                outcome.failure_reports,
                outcome.reconfigurations,
                outcome.spurious_shutdowns,
            ]
        )
    print(table2)
    problems = check_shape(crashes)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nShape check: OK (every crash detected, client fully transparent)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
