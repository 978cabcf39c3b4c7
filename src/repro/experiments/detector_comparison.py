"""Ablation A7: the paper's retransmission-based failure estimator vs
classic heartbeats.

The paper calls its estimator "low-latency" and gets it for free from
TCP's own flow/error control.  This experiment quantifies the trade
against heartbeat detection across three axes:

* detection latency with an ACTIVE client (the paper's scenario);
* detection latency with an IDLE service (the estimator's blind spot:
  no traffic, no retransmissions, no detection);
* idle background overhead (heartbeat messages per second vs zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.echo import EchoStream, echo_server_factory
from repro.core import DetectorParams
from repro.core.heartbeat import enable_heartbeats
from repro.metrics.tables import Table
from repro.runtime import Task

from .experiment import Experiment
from .failover import promotion_watch
from .testbeds import build_ft_system


@dataclass
class DetectorOutcome:
    detector: str
    active_latency: float
    idle_latency: float
    idle_messages_per_sec: float


def _run_crash(use_heartbeats: bool, active_client: bool):
    """Crash the primary; return (detection latency, idle msg/s)."""
    with build_ft_system(
        n_backups=1,
        factory=echo_server_factory,
        port=7,
        detector=DetectorParams(
            threshold=(1_000_000 if use_heartbeats else 3),
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
                period=HEARTBEAT_PERIOD,
                tolerance=3,
            )
        if active_client:
            stream = EchoStream(
                system.client_node, system.service_ip, 7, total_bytes=400_000
            )
            # The client never reads its echo: its receive window closes
            # and only its own data keeps the retransmission signal alive.
            stream.conn.on_data = None
        crash_at = system.sim.now + 0.5
        system.sim.schedule_at(crash_at, system.servers[0].crash)
        promoted_at = promotion_watch(system, crash_at)
        system.run_until(HORIZON)
        latency = promoted_at["t"] - crash_at if "t" in promoted_at else float("inf")
        total_heartbeats = sum(s.sent for s in senders)
        msgs_per_sec = total_heartbeats / system.sim.now if senders else 0.0
        for part in filter(None, (hb_detector, *senders)):
            part.dispose()
        return latency, msgs_per_sec


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


HEARTBEAT_PERIOD = 0.5
#: Simulated seconds each crash run lasts.
HORIZON = 90.0
DETECTORS = (("retransmission (paper)", False), (f"heartbeat (p={HEARTBEAT_PERIOD}s)", True))


def _points(fast: bool) -> list[Task]:
    return [
        Task(f"{name}/{'active' if active else 'idle'}", _run_crash,
             kwargs={"use_heartbeats": use_hb, "active_client": active},
             cost=0.06 if active else 0.005)
        for name, use_hb in DETECTORS
        for active in (True, False)
    ]


def _report(fast: bool, values: dict) -> list[str]:
    outcomes = [
        DetectorOutcome(name, values[f"{name}/active"][0], *values[f"{name}/idle"])
        for name, _use_hb in DETECTORS
    ]
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
    return check_shape(outcomes)


EXPERIMENT = Experiment(
    "A7 failure-detector comparison", _points, _report,
    ok="the paper's estimator is free and traffic-driven; heartbeats pay "
    "constant overhead to also cover idle services",
)
