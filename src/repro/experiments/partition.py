"""Demo D4: split-brain prevention under network partitions.

EXTENSION beyond the paper (DESIGN.md §9).  The paper's failure
estimator cannot tell a partitioned primary from a crashed one (§4.3:
a failure "partitions the acknowledgement channel"), so a backup cut
off from the primary gets promoted while the old primary is still
alive.  The view/epoch fencing subsystem makes that safe: the
redirector arbitrates promotions (one grant per epoch) and drops
client-bound segments stamped with a stale epoch, so the fenced
ex-primary can never interleave bytes with the new primary; after the
heal it is demoted and rejoins as a backup through the live-join path.

Two variants, both partitioning the primary mid-transfer:

* ``symmetric`` — the redirector<->primary link drops both ways (the
  classic partition: the primary is deaf and mute);
* ``oneway``    — only redirector->primary drops (the nastiest case:
  the primary is deaf to the management plane but can still transmit
  toward clients, so only the fence stands between its stale output
  and the client).

Checked invariants: the client byte stream is byte-identical to a
non-faulty run with the same seed and workload, at most one replica
holds primary mode per epoch at every sample point, the fence caught
stale output (or zombie signals) from the ex-primary, and the
ex-primary is back as a backup with chain degree restored to target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.echo import EchoStream, echo_server_factory
from repro.core import DetectorParams
from repro.faults.injection import FaultPlan
from repro.metrics.tables import Table
from repro.recovery import RecoveryManager, SparePool
from repro.runtime import Task

from .experiment import Experiment
from .testbeds import build_ft_system

TARGET_DEGREE = 2
PARTITION_AT = 5.0
PARTITION_FOR = 25.0
SAMPLE_PERIOD = 0.25


def _direction_toward(link, endpoint_name: str) -> str:
    """The channel direction of ``link`` that delivers INTO
    ``endpoint_name`` (link names are ``"{a}<->{b}"``)."""
    a_name, b_name = link.name.split("<->")
    if b_name == endpoint_name:
        return "a_to_b"
    if a_name == endpoint_name:
        return "b_to_a"
    raise ValueError(f"{endpoint_name} is not an endpoint of {link.name}")


def primary_overlap(samples: list[tuple[float, int]]) -> float:
    """Total time during which more than one replica reported primary
    mode *for the same epoch*, from ``(time, primaries_in_epoch)``
    samples.  Piecewise-constant between samples; the fencing invariant
    is that this is always ``0.0``.  A trailing violation is unbounded
    and charged nothing: the caller sees the nonzero final sample
    directly."""
    overlap = 0.0
    for (t0, count), (t1, _next) in zip(samples, samples[1:]):
        if count > 1:
            overlap += t1 - t0
    return overlap


@dataclass
class PartitionRunResult:
    variant: str
    horizon: float
    bytes_sent: int
    bytes_received: int
    stream_intact: bool
    matches_baseline: bool
    client_events: list[str]
    epoch_changes: int
    final_epoch: int
    segments_fenced: int
    demotes_sent: int
    promotions_granted: int
    promotions_refused: int
    near_misses: int
    max_primaries_per_epoch: int
    dual_primary_time: float
    detection_at: Optional[float]
    ex_primary_demotions: int
    rejoins_completed: int
    final_degree: int
    final_chain: list[str]
    rejoined_as_backup: bool
    samples: list[tuple[float, int]] = field(repr=False, default_factory=list)


def _build(seed: int, strategy: str):
    return build_ft_system(
        seed=seed,
        n_backups=1,
        detector=DetectorParams(threshold=3, cooldown=1.0),
        factory=echo_server_factory,
        strategy=strategy,
    )


def _run_workload(system, traffic_until: float) -> EchoStream:
    """Continuous echo traffic: 400 B every 50 ms from t = 2.5 s."""
    return EchoStream(system.client_node, system.service_ip, system.port,
                      chunk=400, every=0.05, start=2.5, until=traffic_until)


def _baseline_received(
    seed: int, traffic_until: float, horizon: float, strategy: str = "chain"
) -> bytes:
    """The same workload with no fault injected."""
    with _build(seed, strategy) as system:
        stream = _run_workload(system, traffic_until)
        system.run_until(horizon)
        return bytes(stream.received)


def run_partition(
    variant: str = "symmetric", seed: int = 0, strategy: str = "chain"
) -> PartitionRunResult:
    if variant not in ("symmetric", "oneway"):
        raise ValueError(f"unknown variant {variant!r}")
    horizon = 90.0
    traffic_until = 60.0
    baseline = _baseline_received(seed, traffic_until, horizon, strategy=strategy)

    with _build(seed, strategy) as system:
        manager = RecoveryManager(
            system.service,
            system.redirector_daemon,
            SparePool(),  # empty: the demoted ex-primary itself is the rejoiner
            target_degree=TARGET_DEGREE,
        )
        ex_primary_node = system.nodes[0]
        # The port object bound pre-fault: a demote fail-stops it and the
        # rejoin binds a *fresh* FtPort, so keep a handle to the original.
        ex_primary_port = system.service.replicas[0].ft_port
        backup_port = system.service.replicas[1].ft_port
        plan = FaultPlan(system.sim)
        link = system.topo.find_link("redirector", "hs_0")
        at = system.sim.now + PARTITION_AT
        if variant == "symmetric":
            plan.partition_at(link, at, duration=PARTITION_FOR)
        else:
            # Primary deaf to the management plane (and to client ACKs)
            # but still able to transmit: fencing is the only defence.
            plan.partition_oneway_at(
                link, _direction_toward(link, "hs_0"), at, duration=PARTITION_FOR
            )

        stream = _run_workload(system, traffic_until)

        # Invariant sampler: at most one replica in primary mode per epoch.
        samples: list[tuple[float, int]] = []

        def sample():
            per_epoch: dict[int, int] = {}
            for handle in system.service.replicas:
                port = handle.ft_port
                if (
                    port.is_primary
                    and not port.shut_down
                    and not handle.node.host_server.crashed
                ):
                    per_epoch[port.epoch] = per_epoch.get(port.epoch, 0) + 1
            samples.append((system.sim.now, max(per_epoch.values(), default=0)))
            if system.sim.now < horizon - SAMPLE_PERIOD:
                system.sim.schedule(SAMPLE_PERIOD, sample)

        system.sim.schedule(SAMPLE_PERIOD, sample)
        system.run_until(horizon)

        daemon = system.redirector_daemon
        key = next(iter(system.redirector.table))
        entry = system.redirector.table[key]
        chain = [str(ip) for ip in entry.replicas]
        detection_at = backup_port.detector.last_report_at
        # The ex-primary's latest incarnation (provision_joiner re-binds it).
        ex_ports = [
            h.ft_port for h in system.service.replicas if h.node is ex_primary_node
        ]
        rejoined = any(
            not p.joining and not p.shut_down and not p.is_primary for p in ex_ports
        ) and str(ex_primary_node.ip) in chain
        stood_down = ex_primary_port.demotions + sum(p.demotions for p in ex_ports)

        return PartitionRunResult(
            variant=variant,
            horizon=horizon,
            bytes_sent=len(stream.sent),
            bytes_received=len(stream.received),
            stream_intact=stream.received == stream.sent,
            matches_baseline=stream.received == baseline,
            client_events=stream.events,
            epoch_changes=len(daemon.services[key].owners),
            final_epoch=entry.epoch,
            segments_fenced=system.redirector.segments_fenced,
            demotes_sent=daemon.demotes_sent,
            promotions_granted=daemon.promotions_granted,
            promotions_refused=daemon.promotions_refused,
            near_misses=daemon.near_misses,
            max_primaries_per_epoch=max((c for _t, c in samples), default=0),
            dual_primary_time=primary_overlap(samples),
            detection_at=detection_at,
            ex_primary_demotions=stood_down,
            rejoins_completed=manager.joins_completed,
            final_degree=len(entry.replicas),
            final_chain=chain,
            rejoined_as_backup=rejoined,
            samples=samples,
        )


def check_shape(result: PartitionRunResult) -> list[str]:
    problems = []
    if not result.stream_intact:
        problems.append(
            f"client stream corrupted or incomplete "
            f"({result.bytes_received}/{result.bytes_sent} bytes)"
        )
    if not result.matches_baseline:
        problems.append("client stream differs from the non-faulty run")
    if result.client_events:
        problems.append(f"client saw connection events: {result.client_events}")
    if result.final_epoch < 1 or result.epoch_changes < 2:
        problems.append(
            f"no fail-over view change (epoch {result.final_epoch}, "
            f"{result.epoch_changes} timeline entries)"
        )
    if result.promotions_granted < 1:
        problems.append("no promotion was ever granted")
    if result.detection_at is None:
        problems.append("the backup's detector never reported the partition")
    if result.max_primaries_per_epoch > 1 or result.dual_primary_time > 0:
        problems.append(
            f"dual primary within one epoch for "
            f"{result.dual_primary_time:.2f}s (max {result.max_primaries_per_epoch})"
        )
    if result.segments_fenced + result.near_misses < 1:
        problems.append(
            "the ex-primary was never caught acting stale "
            "(no fenced segments, no zombie signals)"
        )
    if result.demotes_sent < 1:
        problems.append("no Demote was ever sent")
    if result.ex_primary_demotions < 1:
        problems.append("the ex-primary never stood down")
    if result.final_degree != TARGET_DEGREE:
        problems.append(
            f"final degree {result.final_degree} != {TARGET_DEGREE} "
            f"(chain {result.final_chain})"
        )
    if not result.rejoined_as_backup:
        problems.append("the fenced ex-primary did not rejoin as a backup")
    if result.rejoins_completed < 1:
        problems.append("the rejoin did not go through the live-join path")
    return problems


def _points(fast: bool) -> list[Task]:
    """One task per variant: a 90-simulated-second run plus its baseline."""
    return [
        Task(variant, run_partition, kwargs={"variant": variant}, cost=0.3)
        for variant in (["symmetric"] if fast else ["symmetric", "oneway"])
    ]


def _report(fast: bool, values: dict[str, PartitionRunResult]) -> list[str]:
    table = Table(
        "D4: primary partitioned mid-transfer (epoch fencing, "
        f"{PARTITION_FOR:.0f}s partition at t={PARTITION_AT:.0f}s)",
        [
            "variant",
            "stream",
            "epochs",
            "fenced",
            "demotes",
            "max pri/epoch",
            "degree",
            "rejoined",
        ],
    )
    problems = []
    for variant, result in values.items():
        table.add_row(
            [
                variant,
                "exact" if result.stream_intact and result.matches_baseline else "BAD",
                result.final_epoch + 1,
                result.segments_fenced,
                result.demotes_sent,
                result.max_primaries_per_epoch,
                result.final_degree,
                "yes" if result.rejoined_as_backup else "NO",
            ]
        )
        problems.extend(f"[{variant}] {p}" for p in check_shape(result))
    print(table)
    return problems


EXPERIMENT = Experiment(
    "D4 partition / split-brain fencing", _points, _report,
    ok="one primary per epoch throughout, stale output fenced, client stream "
    "byte-identical to the non-faulty run, ex-primary demoted and rejoined",
)
