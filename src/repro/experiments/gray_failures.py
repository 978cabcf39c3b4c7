"""Demo D6: gray-failure adversary catalogue (DESIGN.md §14).

EXTENSION beyond the paper.  The paper's failure model is fail-stop: a
replica crashes, the acknowledgement channel falls silent, and the
detector notices the silence.  Real replicas fail *gray*: they slow
down (CPU contention), their links drop traffic in one direction,
their progress reports corrupt in flight, or — compromised — they lie
about their progress.  A gray replica keeps talking, so silence-based
detection is blind to it; untreated, a slow or lying successor stalls
the primary's output indefinitely (the output and deposit gates are
anchored to the successor's watermarks).

The sweep pits the full grid of slowdown x loss-asymmetry x lying
against a chain of three replicas plus one spare, with the defences of
§14 armed: progress-report checksums and plausibility validation,
lie-evidence reporting, and graceful degradation (a successor that
keeps talking while our output stays blocked past
``degradation_timeout`` is reported and excised through the same
congestion rule and chain splice that recovery uses).  Reported per
point: whether and when the gray replica was excised, the longest
client-visible output stall, and goodput through the fault window
relative to the fail-stop baseline (same seed, the replica crashes
outright instead).

Checked invariants: every monitor green (in particular OutputLiveness:
output never stalls longer than the bound while a healthy quorum
remains), the client stream is an exact echo prefix, and the lying and
slow-heavy adversaries get excised with the chain degree restored.

``--certify`` runs fail-over onto a 10x-slow survivor instead, computed
inline and in a pool worker with equal results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.echo import EchoStream, echo_server_factory
from repro.core import DetectorParams
from repro.faults import GrayFaultPlan
from repro.invariants import attach_invariants
from repro.metrics.tables import Table
from repro.recovery import RecoveryManager, SparePool
from repro.runtime import Task

from .experiment import Certify, Experiment
from .testbeds import build_ft_system

#: The successor under attack is hs_1 (the primary's direct successor).
VICTIM = 1
N_BACKUPS = 2
N_SPARES = 1
TARGET_DEGREE = 3

FAULT_AT = 6.0
FAULT_FOR = 30.0
TRAFFIC_START = 2.5
TRAFFIC_UNTIL = 22.5
HORIZON = 26.0
#: Goodput is measured across the first ten seconds of the fault.
MEASURE_WINDOW = 10.0
#: OutputLiveness bound — generous K*RTT headroom over one
#: degradation-timeout + excision + splice round.
LIVENESS_BOUND = 8.0
DEGRADATION_TIMEOUT = 2.0

#: Crash of the *primary* in the certification run — while hs_1 is
#: already crawling — exercises fail-over onto a slow survivor.
CRASH_PRIMARY_AT = 10.0

#: 100 kB/s offered load: below the healthy chain's CPU capacity
#: (~150 kB/s) so the baseline never saturates, yet heavy enough that
#: a 10x-slow backup visibly throttles goodput through its window.
CHUNK = 1250
SEND_EVERY = 0.0125


@dataclass(frozen=True)
class Variant:
    """One adversary grid point: CPU slowdown factor of the victim,
    loss rate on the redirector->victim direction, and whether the
    victim lies about its progress.  ``crash=True`` is the fail-stop
    reference the gray points are compared against."""

    name: str
    slow: float = 1.0
    asym_loss: float = 0.0
    lie: bool = False
    crash: bool = False
    #: Certification only: fail-stop the *primary* at CRASH_PRIMARY_AT
    #: on top of the gray fault, forcing fail-over onto the survivors.
    crash_primary: bool = False


def _grid(fast: bool) -> list[Variant]:
    variants = [
        Variant("baseline"),
        Variant("fail_stop", crash=True),
    ]
    slows = [1.0, 10.0]
    losses = [0.0, 0.4]
    lies = [False, True]
    for slow in slows:
        for loss in losses:
            for lie in lies:
                if slow == 1.0 and loss == 0.0 and not lie:
                    continue
                name = "+".join(
                    part
                    for part in (
                        f"slow{slow:g}" if slow > 1.0 else "",
                        f"asym{loss:g}" if loss > 0.0 else "",
                        "lie" if lie else "",
                    )
                    if part
                )
                variants.append(Variant(name, slow=slow, asym_loss=loss, lie=lie))
    if fast:
        keep = {"baseline", "fail_stop", "slow10", "asym0.4", "lie"}
        variants = [v for v in variants if v.name in keep]
    return variants


@dataclass
class GrayRunResult:
    variant: str
    bytes_sent: int
    bytes_received: int
    stream_intact: bool
    max_stall: float
    goodput: float  # bytes/s through the measurement window
    excised: bool
    excision_at: Optional[float]
    failover_time: Optional[float]
    final_degree: int
    rejoins_completed: int
    promotions: int
    lie_reports: int
    degradation_reports: int
    implausible_reports: int
    corrupt_dropped: int
    violated_monitors: list[str]
    fingerprint: str
    samples: list = field(repr=False, default_factory=list)


def run_variant(variant: Variant, seed: int = 0) -> GrayRunResult:
    detector = DetectorParams(
        threshold=3, cooldown=1.0, degradation_timeout=DEGRADATION_TIMEOUT
    )
    with build_ft_system(
        seed=seed,
        n_backups=N_BACKUPS,
        n_spares=N_SPARES,
        detector=detector,
        factory=echo_server_factory,
    ) as system:
        pool = SparePool()
        for spare in system.spare_nodes:
            pool.add(spare)
        manager = RecoveryManager(
            system.service, system.redirector_daemon, pool, target_degree=TARGET_DEGREE
        )
        invset = attach_invariants(system)
        invset.output_liveness.bound = LIVENESS_BOUND

        victim_host = system.servers[VICTIM]
        victim_node = system.nodes[VICTIM]
        plan = GrayFaultPlan(system.sim)
        at = FAULT_AT
        if variant.crash:
            plan.crash_at(victim_host, at)
        else:
            if variant.slow > 1.0:
                plan.slow_host_at(victim_host, at, FAULT_FOR, factor=variant.slow)
            if variant.asym_loss > 0.0:
                link = system.topo.find_link("redirector", victim_host.name)
                # a_to_b: redirector -> victim.  The victim goes partially
                # deaf to client data but keeps talking upstream — the
                # asymmetric case silence-based detection cannot see.
                plan.asymmetric_loss_at(link, "a_to_b", at, FAULT_FOR, variant.asym_loss)
            if variant.lie:
                plan.lie_progress_at(victim_node, at, FAULT_FOR, inflate=1_000_000)
        if variant.crash_primary:
            plan.crash_at(system.servers[0], CRASH_PRIMARY_AT)

        stream = EchoStream(system.client_node, system.service_ip, system.port,
                            chunk=CHUNK, every=SEND_EVERY, start=TRAFFIC_START,
                            until=TRAFFIC_UNTIL)
        sent, received = stream.sent, stream.received
        arrivals: list[tuple[float, int]] = []

        def on_data(data: bytes) -> None:
            received.extend(data)
            arrivals.append((system.sim.now, len(data)))

        stream.conn.on_data = on_data

        # Chain sampler: when does the victim leave the redirector's view?
        victim_ip = victim_node.ip
        samples: list[tuple[float, bool]] = []
        excision_at: list[Optional[float]] = [None]

        def sample():
            entry = next(iter(system.redirector.table.values()), None)
            present = entry is not None and victim_ip in entry.replicas
            samples.append((system.sim.now, present))
            if not present and excision_at[0] is None:
                excision_at[0] = system.sim.now
            if system.sim.now < HORIZON - 0.1:
                system.sim.schedule(0.1, sample)

        system.sim.schedule(0.1, sample)
        system.run_until(HORIZON)

        # Longest client-visible output gap while traffic was flowing.
        max_stall = 0.0
        last = TRAFFIC_START
        for t, _n in arrivals:
            max_stall = max(max_stall, t - last)
            last = t
        if len(received) < len(sent):
            # Stalled at the end: the gap runs to the traffic deadline.
            max_stall = max(max_stall, TRAFFIC_UNTIL - last)

        window_bytes = sum(
            n for t, n in arrivals if FAULT_AT <= t < FAULT_AT + MEASURE_WINDOW
        )

        lie_reports = degradation_reports = implausible = corrupt = promotions = 0
        for node in system.nodes:
            corrupt += node.ack_endpoint.messages_corrupt_dropped
            for ftport in node.stack.ports.values():
                lie_reports += ftport.lie_reports
                degradation_reports += ftport.degradation_reports
                implausible += ftport.implausible_reports
                promotions += ftport.promotions

        entry = next(iter(system.redirector.table.values()), None)
        final_degree = len(entry.replicas) if entry is not None else 0
        violated = invset.violated_monitors()
        stream_intact = bytes(received) == bytes(sent[: len(received)])

        fingerprint = hashlib.sha256()
        fingerprint.update(bytes(received))
        fingerprint.update(
            json.JSONEncoder(sort_keys=True)
            .encode(
                {
                    "variant": variant.name,
                    "received": len(received),
                    "violations": violated,
                    "excised": excision_at[0] is not None,
                }
            )
            .encode()
        )

        return GrayRunResult(
            variant=variant.name,
            bytes_sent=len(sent),
            bytes_received=len(received),
            stream_intact=stream_intact,
            max_stall=round(max_stall, 3),
            goodput=window_bytes / MEASURE_WINDOW,
            excised=excision_at[0] is not None,
            excision_at=excision_at[0],
            failover_time=(
                round(excision_at[0] - FAULT_AT, 3) if excision_at[0] is not None else None
            ),
            final_degree=final_degree,
            rejoins_completed=manager.joins_completed,
            promotions=promotions,
            lie_reports=lie_reports,
            degradation_reports=degradation_reports,
            implausible_reports=implausible,
            corrupt_dropped=corrupt,
            violated_monitors=violated,
            fingerprint=fingerprint.hexdigest(),
            samples=samples,
        )


def check_shape(result: GrayRunResult) -> list[str]:
    problems = []
    if result.violated_monitors:
        problems.append(f"monitor violations: {result.violated_monitors}")
    if not result.stream_intact:
        problems.append(
            f"client stream is not an echo prefix "
            f"({result.bytes_received}/{result.bytes_sent} bytes)"
        )
    if result.max_stall > LIVENESS_BOUND:
        problems.append(
            f"output stalled {result.max_stall:.2f}s > bound {LIVENESS_BOUND:.0f}s"
        )
    if result.variant == "baseline":
        if result.excised:
            problems.append("baseline run excised a healthy replica")
        return problems
    if result.variant == "fail_stop" and not result.excised:
        problems.append("crashed replica was never removed from the chain")
    if result.variant == "slow10" and result.excised:
        # Zero-progress criterion: a slow-but-moving replica degrades
        # goodput, it is never mistaken for a wedged one.
        problems.append("slow-but-progressing replica was falsely excised")
    if "lie" in result.variant:
        if result.implausible_reports < 1:
            problems.append("no lying report was ever flagged implausible")
        if not result.excised:
            problems.append("the lying replica was never excised")
    return problems


def _points(fast: bool) -> list[Task]:
    return [
        Task(variant.name, run_variant, kwargs={"variant": variant}, cost=0.45)
        for variant in _grid(fast)
    ]


def _report(fast: bool, values: dict[str, GrayRunResult]) -> list[str]:
    failstop = values.get("fail_stop")
    table = Table(
        "D6: gray-failure adversary sweep (victim = the primary's "
        f"successor; fault at t={FAULT_AT:.0f}s, degradation timeout "
        f"{DEGRADATION_TIMEOUT:.0f}s, liveness bound {LIVENESS_BOUND:.0f}s)",
        [
            "adversary",
            "stream",
            "max stall",
            "goodput",
            "vs fail-stop",
            "excised at",
            "degree",
            "lie rep",
            "degr rep",
        ],
    )
    problems = []
    for result in values.values():
        ratio = (
            f"{result.goodput / failstop.goodput:5.2f}x"
            if failstop is not None and failstop.goodput > 0
            else "-"
        )
        table.add_row(
            [
                result.variant,
                "exact" if result.stream_intact else "BAD",
                f"{result.max_stall:.2f}s",
                f"{result.goodput / 1000:.1f} kB/s",
                ratio,
                (
                    f"+{result.failover_time:.2f}s"
                    if result.failover_time is not None
                    else "-"
                ),
                result.final_degree,
                result.lie_reports,
                result.degradation_reports,
            ]
        )
        problems.extend(f"[{result.variant}] {p}" for p in check_shape(result))
    print(table)
    return problems


#: The certification scenario: hs_1 starts crawling at t=6, the primary
#: crashes at t=10 — the chain must promote a survivor and keep the
#: client stream flowing without ever stalling past the liveness bound,
#: with every monitor green.
CERTIFY_VARIANT = Variant("failover_under_slow", slow=10.0, crash_primary=True)


def _certify_check(values: dict[str, GrayRunResult]) -> list[str]:
    result = values[CERTIFY_VARIANT.name]
    print(
        f"certify {result.variant}: stall {result.max_stall:.2f}s, "
        f"goodput {result.goodput / 1000:.1f} kB/s, "
        f"promotions {result.promotions}, "
        f"fingerprint {result.fingerprint[:16]}…"
    )
    problems = []
    if result.violated_monitors:
        problems.append(f"monitor violations: {result.violated_monitors}")
    if result.max_stall > LIVENESS_BOUND:
        problems.append(
            f"output stalled {result.max_stall:.2f}s during fail-over "
            f"under a 10x-slow replica (bound {LIVENESS_BOUND:.0f}s)"
        )
    if result.promotions < 1:
        problems.append("no survivor was ever promoted to primary")
    if not result.stream_intact:
        problems.append("client stream not an exact echo prefix")
    return problems


EXPERIMENT = Experiment(
    "D6 gray failures (adversary catalogue)", _points, _report,
    ok="all monitors green, no stall beyond the liveness bound, lying "
    "replicas flagged and excised, client streams exact",
    certify=Certify(
        lambda: [Task(CERTIFY_VARIANT.name, run_variant, kwargs={"variant": CERTIFY_VARIANT})],
        _certify_check,
    ),
)
