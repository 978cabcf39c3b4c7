"""Ablation A7: the paper's retransmission-based failure estimator vs
classic heartbeats.

The paper calls its estimator "low-latency" and gets it for free from
TCP's own flow/error control.  This experiment quantifies the trade
against heartbeat detection across three axes:

* detection latency with an ACTIVE client (the paper's scenario);
* detection latency with an IDLE service (the estimator's blind spot:
  no traffic, no retransmissions, no detection);
* idle background overhead (heartbeat messages per second vs zero).

Run with:  python -m repro.experiments.detector_comparison
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from repro.apps.echo import echo_server_factory
from repro.core import DetectorParams
from repro.core.heartbeat import enable_heartbeats
from repro.metrics.tables import Table

from .testbeds import build_ft_system


@dataclass
class DetectorOutcome:
    detector: str
    active_latency: float
    idle_latency: float
    idle_messages_per_sec: float


def _promotion_watch(system, promoted_at: dict) -> None:
    def watch():
        if system.service.replicas[1].ft_port.is_primary:
            promoted_at["t"] = system.sim.now
        else:
            system.sim.schedule(0.05, watch)

    system.sim.schedule(0.0, watch)


def _run_crash(
    use_heartbeats: bool,
    active_client: bool,
    heartbeat_period: float = 0.5,
    heartbeat_tolerance: int = 3,
    retrans_threshold: int = 3,
    seed: int = 0,
    horizon: float = 90.0,
):
    """Crash the primary; return (detection latency, idle msg/s)."""
    with build_ft_system(
        seed=seed,
        n_backups=1,
        factory=echo_server_factory,
        port=7,
        detector=DetectorParams(
            threshold=(1_000_000 if use_heartbeats else retrans_threshold),
            cooldown=1.0,
        ),
    ) as system:
        hb_detector, senders = None, ()
        if use_heartbeats:
            hb_detector, senders = enable_heartbeats(
                system.redirector_daemon,
                system.nodes,
                system.service_ip,
                7,
                period=heartbeat_period,
                tolerance=heartbeat_tolerance,
            )
        if active_client:
            conn = system.client_node.connect(system.service_ip, 7)
            payload = bytes(i % 256 for i in range(400_000))
            sent = {"n": 0}

            def pump():
                while sent["n"] < len(payload):
                    n = conn.send(payload[sent["n"] : sent["n"] + 2048])
                    sent["n"] += n
                    if n == 0:
                        return

            conn.on_established = pump
            conn.on_send_space = pump
        crash_at = system.sim.now + 0.5
        promoted_at: dict = {}
        system.sim.schedule_at(crash_at, system.servers[0].crash)
        system.sim.schedule_at(crash_at, lambda: _promotion_watch(system, promoted_at))
        system.run_until(horizon)
        latency = promoted_at["t"] - crash_at if "t" in promoted_at else float("inf")
        total_heartbeats = sum(s.sent for s in senders)
        msgs_per_sec = total_heartbeats / system.sim.now if senders else 0.0
        for part in filter(None, (hb_detector, *senders)):
            part.dispose()
        return latency, msgs_per_sec


def run_comparison(
    heartbeat_period: float = 0.5,
    seed: int = 0,
) -> list[DetectorOutcome]:
    outcomes = []
    for use_hb, name in ((False, "retransmission (paper)"), (True, "heartbeat")):
        active, _ = _run_crash(use_hb, active_client=True, heartbeat_period=heartbeat_period, seed=seed)
        idle, idle_rate = _run_crash(use_hb, active_client=False, heartbeat_period=heartbeat_period, seed=seed)
        outcomes.append(
            DetectorOutcome(
                detector=name if not use_hb else f"heartbeat (p={heartbeat_period}s)",
                active_latency=active,
                idle_latency=idle,
                idle_messages_per_sec=idle_rate,
            )
        )
    return outcomes


def check_shape(outcomes: list[DetectorOutcome]) -> list[str]:
    problems = []
    paper = next(o for o in outcomes if "paper" in o.detector)
    heartbeat = next(o for o in outcomes if "heartbeat" in o.detector)
    if paper.active_latency == float("inf"):
        problems.append("paper detector missed an active-client crash")
    if paper.idle_latency != float("inf"):
        problems.append(
            "paper detector claimed to detect an idle crash (it has no signal)"
        )
    if paper.idle_messages_per_sec != 0.0:
        problems.append("paper detector should cost nothing at idle")
    if heartbeat.idle_latency == float("inf"):
        problems.append("heartbeat detector missed the idle crash")
    if heartbeat.idle_messages_per_sec <= 0:
        problems.append("heartbeat detector reported no background traffic")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    period = 0.5
    outcomes = run_comparison(heartbeat_period=period)
    table = Table(
        "A7: failure-detector comparison (primary crash)",
        ["detector", "active-client latency [s]", "idle-service latency [s]", "idle msgs/s"],
    )
    for o in outcomes:
        table.add_row(
            [
                o.detector,
                f"{o.active_latency:.2f}" if o.active_latency != float("inf") else "never",
                f"{o.idle_latency:.2f}" if o.idle_latency != float("inf") else "never",
                f"{o.idle_messages_per_sec:.1f}",
            ]
        )
    print(table)
    problems = check_shape(outcomes)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        "\nShape check: OK (the paper's estimator is free and traffic-driven; "
        "heartbeats pay constant overhead to also cover idle services)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
