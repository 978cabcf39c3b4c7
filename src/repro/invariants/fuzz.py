"""Deterministic fault-schedule fuzzer (DESIGN.md §11).

A scenario is a plain-data :class:`ScenarioSpec`: topology knobs
(backups, loss, latency, MTU), a workload (echo request/response or a
one-way ttcp stream), and a fault schedule drawn from the repertoire of
:class:`~repro.faults.FaultPlan`.  A fraction of generated scenarios
instead run over a *small redirector mesh* (2–3 redirectors, 2–4
replicated services, via :mod:`repro.topo`) so the mesh sync protocol
and hierarchical failure aggregation get fuzzed too.  ``run_scenario`` builds the system,
arms the invariant monitors (:mod:`repro.invariants.monitors`), applies
the schedule, and returns the violations plus a protocol-level
fingerprint (client bytes + canonical replica streams) that is stable
across engine changes and ``REPRO_SEED_OFFSET`` values — the fuzzer
derives every seed itself and deliberately ignores that variable.

On a violation, :mod:`repro.invariants.shrink` delta-debugs the fault
schedule and workload down to a minimal reproducer, serialized as JSON
into ``tests/fuzz_corpus/`` and replayable with
``python -m repro fuzz --replay FILE``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Optional

from repro.apps.echo import EchoStream, echo_server_factory
from repro.apps.ttcp import TtcpSender, ttcp_sink_factory
from repro.core import DetectorParams
from repro.core.ack_channel import AckChannelMessage
from repro.core.ft_tcp import FtConnectionState, FtPort
from repro.experiments.testbeds import TTCP_PORT, FtSystem, build_ft_system
from repro.faults import FaultPlan, GrayFaultPlan
from repro.hydranet import Redirector
from repro.netsim import SimulationError, TopologyError
from repro.replication import available_strategies, members
from repro.tcp.buffers import UNGATED
from repro.topo import MeshScenario, MeshWorkload, TopoBuildError
from repro.topo import generate as generate_topology

from .monitors import attach_invariants

#: Default location of the committed reproducer corpus.
CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "fuzz_corpus"

SPEC_VERSION = 1

#: OutputLiveness stall bound armed in gray scenarios (seconds — think
#: K·RTT with plenty of headroom for one excision + fail-over round).
GRAY_LIVENESS_BOUND = 8.0

#: Graceful-degradation timeout used by gray scenarios' replicas.
GRAY_DEGRADATION_TIMEOUT = 2.0


@dataclass
class ScenarioSpec:
    """One fuzz scenario: everything needed to replay it exactly."""

    seed: int
    n_backups: int = 1
    n_spares: int = 0
    loss: float = 0.0
    latency: float = 0.0005
    mtu: int = 1500
    workload: dict = field(
        default_factory=lambda: {"kind": "echo", "total_bytes": 40_000, "chunk": 2048}
    )
    duration: float = 30.0
    faults: list = field(default_factory=list)
    #: When set, the scenario runs over a small redirector *mesh*
    #: (:mod:`repro.topo`) instead of the classic single-redirector
    #: testbed: ``{"kind": ..., "params": {...}, "workload": {...}}``.
    #: ``None`` (the default) keeps old corpus files replayable as-is.
    mesh: Optional[dict] = None
    #: Gray-failure mode: the schedule may contain gray ops (slow_host,
    #: asym_loss, corrupt_ack, reorder_ack, lie_progress), replicas run
    #: with graceful degradation enabled, and the OutputLiveness
    #: monitor is armed.  ``False`` (the default) keeps old corpus
    #: files replayable byte-identically.
    gray: bool = False
    #: Replication backend the replicas run (DESIGN.md §15).  The
    #: default keeps old corpus files replayable byte-identically.
    backend: str = "chain"
    version: int = SPEC_VERSION

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ScenarioSpec":
        """The spec a JSON object describes.  A field of the wrong type,
        or a size, rate or time that is not finite and in range, raises
        ``ValueError`` naming every such field."""
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        spec = cls(**known)
        workload = spec.workload if isinstance(spec.workload, dict) else {}
        checks = [
            ("seed", spec.seed, type(spec.seed) is int),
            ("n_backups", spec.n_backups, _count(spec.n_backups, 0)),
            ("n_spares", spec.n_spares, _count(spec.n_spares, 0)),
            ("loss", spec.loss, _amount(spec.loss) and spec.loss <= 1),
            ("latency", spec.latency, _amount(spec.latency)),
            ("mtu", spec.mtu, _count(spec.mtu, 1)),
            ("duration", spec.duration, _amount(spec.duration) and spec.duration > 0),
            ("workload", spec.workload, isinstance(spec.workload, dict)
             and workload.get("kind", "echo") in _WORKLOAD_KINDS),
            ("faults", spec.faults, isinstance(spec.faults, list)
             and all(isinstance(op, dict) for op in spec.faults)),
            ("mesh", spec.mesh, spec.mesh is None or isinstance(spec.mesh, dict)),
            ("gray", spec.gray, type(spec.gray) is bool),
            ("backend", spec.backend, type(spec.backend) is str),
            ("version", spec.version, type(spec.version) is int),
        ]
        for key, value in workload.items():
            if key in ("total_bytes", "chunk", "buflen", "nbuf"):
                checks.append((f"workload.{key}", value, _count(value, 1)))
            elif key in ("every", "until"):
                checks.append((f"workload.{key}", value, _amount(value) and value > 0))
        wrong = [f"{name}={value!r}" for name, value, ok in checks if not ok]
        if wrong:
            raise ValueError(f"bad spec field: {', '.join(wrong)}")
        return spec


#: What a spec's ``workload["kind"]`` may name.
_WORKLOAD_KINDS = ("echo", "paced_echo", "ttcp", "mesh")


def _count(value, low: int) -> bool:
    """An int (not a bool) of at least ``low``."""
    return type(value) is int and value >= low


def _amount(value) -> bool:
    """A finite, non-negative int or float (not a bool)."""
    return type(value) in (int, float) and math.isfinite(value) and value >= 0


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    violations: list
    violated_monitors: list
    fingerprint: str
    client_received: int
    stats: dict


# -- scenario generation ----------------------------------------------------


def fault_time(op: dict) -> float:
    """When a fault op starts: its ``at`` (a crash cycle's ``start``)."""
    return op.get("at", op.get("start", 0.0))


def _drop_overlapping_partitions(faults: list) -> list:
    """Drop partition ops whose window overlaps an earlier partition
    window on the same link direction (generation order):
    :class:`~repro.faults.FaultPlan` rejects such schedules, because
    the earlier window's heal would silently re-raise the channel in
    the middle of the later window.  Runs *after* every RNG draw, so
    pre-existing seeds keep their streams — only the (previously
    silently-miscomposed) overlapping op disappears."""
    windows = FaultPlan(None)
    kept = []
    for op in faults:
        kind = op.get("op")
        if kind in ("partition", "partition_oneway"):
            directions = (
                (op["direction"],) if kind == "partition_oneway" else ("a_to_b", "b_to_a")
            )
            duration = op.get("duration")
            try:
                windows._reserve(
                    [("partition", f"{op['link']}:{d}") for d in directions],
                    op["at"],
                    float("inf") if duration is None else op["at"] + duration,
                )
            except ValueError:
                continue
        kept.append(op)
    return kept


def _gen_faults(rng: random.Random, n_backups: int, duration: float) -> list:
    """Draw a fault schedule.  Times are absolute (traffic starts at
    t=2.0 after registration).  Weighted towards partitioning the
    primary's link — the schedules that exercise promotion, fencing and
    the split-brain machinery hardest."""
    faults = []
    hosts = [f"hs_{i}" for i in range(1 + n_backups)]
    crashed: set = set()
    n_ops = rng.randint(1, 3)
    for _ in range(n_ops):
        # Faults land 0.2-3.0 s after traffic starts (t=2.0), but most
        # transfers finish first: in 52 of 64 chain echo scenarios with
        # faults (seeds 0-99) the client has its whole echo before the
        # first fault fires, so most faults hit an idle connection.
        at = round(2.0 + rng.uniform(0.2, 3.0), 3)
        roll = rng.random()
        if roll < 0.30 and n_backups >= 1:
            faults.append(
                {
                    "op": "partition",
                    "link": "hs_0",
                    "at": at,
                    "duration": round(rng.uniform(3.0, 10.0), 3),
                }
            )
        elif roll < 0.45 and n_backups >= 1:
            faults.append(
                {
                    "op": "partition_oneway",
                    "link": "hs_0",
                    # a is the redirector: a_to_b deafens the replica
                    # while it can still transmit — the split-brain case.
                    "direction": rng.choice(["a_to_b", "b_to_a"]),
                    "at": at,
                    "duration": round(rng.uniform(3.0, 10.0), 3),
                }
            )
        elif roll < 0.65:
            victims = [h for h in hosts if h not in crashed]
            if not victims:
                continue
            victim = rng.choice(victims)
            crashed.add(victim)
            if rng.random() < 0.5:
                faults.append({"op": "crash", "target": victim, "at": at})
            else:
                d = round(rng.uniform(3.0, 10.0), 3)
                faults.append(
                    {"op": "crash_for", "target": victim, "at": at, "duration": d}
                )
                if rng.random() < 0.4:
                    faults.append(
                        {
                            "op": "recommission",
                            "target": victim,
                            "at": round(at + d + rng.uniform(0.5, 2.0), 3),
                        }
                    )
        elif roll < 0.80:
            link = rng.choice(["client"] + hosts)
            faults.append(
                {
                    "op": "loss_burst",
                    "link": link,
                    "at": at,
                    "duration": round(rng.uniform(0.5, 3.0), 3),
                    "loss_rate": round(rng.uniform(0.3, 1.0), 3),
                }
            )
        elif roll < 0.92 and n_backups >= 1:
            link = rng.choice([f"hs_{i}" for i in range(1, 1 + n_backups)])
            faults.append(
                {
                    "op": "partition",
                    "link": link,
                    "at": at,
                    "duration": round(rng.uniform(1.0, 6.0), 3),
                }
            )
        else:
            victims = [h for h in hosts if h not in crashed]
            if not victims:
                continue
            victim = rng.choice(victims)
            crashed.add(victim)
            faults.append(
                {
                    "op": "crash_cycle",
                    "target": victim,
                    "start": at,
                    "period": round(rng.uniform(4.0, 8.0), 3),
                    "downtime": round(rng.uniform(1.0, 3.0), 3),
                    "count": rng.randint(2, 3),
                }
            )
    faults = _drop_overlapping_partitions(faults)
    faults.sort(key=fault_time)
    return faults


def _gen_gray_faults(rng: random.Random, n_backups: int, duration: float) -> list:
    """Draw 1-2 gray-failure ops (DESIGN.md §14).  Weighted towards
    ``lie_progress`` so a ``--mutate progress_check`` sweep meets a liar
    within a few dozen seeds.  One op per (reservation-group, target) —
    :class:`~repro.faults.GrayFaultPlan` rejects overlapping windows on
    the same target, and the generator must only emit valid schedules."""
    faults = []
    backups = [f"hs_{i}" for i in range(1, 1 + n_backups)]
    used: set = set()
    for _ in range(rng.randint(1, 2)):
        # Earlier than the classic schedule: an unfaulted transfer is
        # done within a second of traffic start (t=2.0), and a gray op
        # only bites while traffic is in flight.
        at = round(2.2 + rng.uniform(0.0, 1.2), 3)
        roll = rng.random()
        if roll < 0.40:
            target = rng.choice(backups)
            group = ("lie-progress", target)
            if group in used:
                continue
            used.add(group)
            faults.append(
                {
                    "op": "lie_progress",
                    "target": target,
                    "at": at,
                    # Long enough that some windows exceed the liveness
                    # bound: with excision disabled (mutation) the stall
                    # then trips OutputLiveness; with it enabled the
                    # liar is cut out within a couple of seconds.
                    "duration": round(rng.uniform(4.0, 12.0), 3),
                    "inflate": rng.choice([500_000, 1_000_000, 2_000_000]),
                }
            )
        elif roll < 0.60:
            target = rng.choice(["hs_0"] + backups)
            group = ("slow-host", target)
            if group in used:
                continue
            used.add(group)
            faults.append(
                {
                    "op": "slow_host",
                    "target": target,
                    "at": at,
                    "duration": round(rng.uniform(3.0, 10.0), 3),
                    "factor": rng.choice([5.0, 10.0, 20.0]),
                }
            )
        elif roll < 0.75:
            link = rng.choice(["client"] + backups)
            direction = rng.choice(["a_to_b", "b_to_a"])
            group = ("asym-loss", f"{link}:{direction}")
            if group in used:
                continue
            used.add(group)
            faults.append(
                {
                    "op": "asym_loss",
                    "link": link,
                    "direction": direction,
                    "at": at,
                    "duration": round(rng.uniform(2.0, 6.0), 3),
                    "loss_rate": round(rng.uniform(0.3, 0.9), 3),
                }
            )
        else:
            # Ack traffic of backup hs_i leaves on its own uplink
            # (b_to_a: host server -> redirector), so tap there.
            # corrupt and reorder share the single tap slot per channel.
            link = rng.choice(backups)
            group = ("ack-tap", f"{link}:b_to_a")
            if group in used:
                continue
            used.add(group)
            op = {
                "op": rng.choice(["corrupt_ack", "reorder_ack"]),
                "link": link,
                "direction": "b_to_a",
                "at": at,
                "duration": round(rng.uniform(2.0, 6.0), 3),
                "rate": round(rng.uniform(0.3, 0.8), 3),
            }
            if op["op"] == "reorder_ack":
                op["delay"] = round(rng.uniform(0.02, 0.2), 3)
            faults.append(op)
    faults.sort(key=fault_time)
    return faults


def _gen_mesh_faults(rng: random.Random, spokes: int, duration: float) -> list:
    """Fault schedule for a small hub-and-spoke mesh.  Targets are the
    mesh host names; ``partition``/``loss_burst`` links name the host
    whose uplink (to its adjacent redirector) is hit — partitioning a
    ``spoke`` therefore severs a whole rack from the hub."""
    servers = [f"srv_s{s}n{n}" for s in range(spokes) for n in range(2)]
    rack_edges = [f"spoke{s}" for s in range(spokes)]
    faults = []
    crashed: set = set()
    for _ in range(rng.randint(1, 2)):
        at = round(2.5 + rng.uniform(0.2, 4.0), 3)
        roll = rng.random()
        if roll < 0.40:
            victims = [s for s in servers if s not in crashed]
            if not victims:
                continue
            victim = rng.choice(victims)
            crashed.add(victim)
            if rng.random() < 0.5:
                faults.append({"op": "crash", "target": victim, "at": at})
            else:
                faults.append(
                    {
                        "op": "crash_for",
                        "target": victim,
                        "at": at,
                        "duration": round(rng.uniform(3.0, 8.0), 3),
                    }
                )
        elif roll < 0.70:
            faults.append(
                {
                    "op": "partition",
                    "link": rng.choice(servers),
                    "at": at,
                    "duration": round(rng.uniform(2.0, 6.0), 3),
                }
            )
        elif roll < 0.85:
            faults.append(
                {
                    "op": "partition",
                    "link": rng.choice(rack_edges),
                    "at": at,
                    "duration": round(rng.uniform(1.0, 4.0), 3),
                }
            )
        else:
            faults.append(
                {
                    "op": "loss_burst",
                    "link": rng.choice(servers + rack_edges),
                    "at": at,
                    "duration": round(rng.uniform(0.5, 2.5), 3),
                    "loss_rate": round(rng.uniform(0.3, 0.9), 3),
                }
            )
    faults = _drop_overlapping_partitions(faults)
    faults.sort(key=fault_time)
    return faults


def _generate_mesh_spec(scenario_seed: int, rng: random.Random) -> ScenarioSpec:
    """A small-mesh scenario: 2–3 redirectors (hub + spokes), 2–4
    replicated services, a modest closed-loop client population."""
    spokes = rng.randint(1, 2)
    n_services = rng.randint(2, 4)
    duration = round(rng.uniform(18.0, 35.0), 1)
    mesh = {
        "kind": "hub_and_spoke",
        "params": {
            "spokes": spokes,
            "servers_per_spoke": 2,
            "clients_per_spoke": 1,
            "services": n_services,
            "backups": 1,
        },
        "workload": {
            "connections": rng.choice([6, 10, 14]),
            "requests_per_conn": rng.randint(8, 24),
            "request_size": rng.choice([64, 256]),
            "think_time": 0.05,
            "start_window": 0.5,
        },
    }
    return ScenarioSpec(
        seed=scenario_seed,
        workload={"kind": "mesh"},
        duration=duration,
        faults=_gen_mesh_faults(rng, spokes, duration),
        mesh=mesh,
    )


def generate_spec(
    scenario_seed: int, gray: bool = False, backend: str = "chain"
) -> ScenarioSpec:
    """Derive one scenario deterministically from ``scenario_seed``.
    No environment input: the same seed is the same scenario on every
    machine and under every ``REPRO_SEED_OFFSET``.

    ``gray=True`` layers gray-failure ops on top of the classic
    schedule (and forces a non-mesh topology with at least one backup,
    so there is a chain to lie on).  ``backend`` picks the replication
    strategy the replicas run; mesh scenarios are chain-only, so other
    backends fall through to the classic testbed on mesh seeds.  The
    classic RNG stream is untouched either way — every draw below
    happens identically for every (gray, backend) combination, so old
    seeds keep their scenarios.
    """
    rng = random.Random(scenario_seed * 2654435761 % (2**31))
    mesh_roll = rng.random()
    if not gray and mesh_roll < 0.20 and backend == "chain":
        return _generate_mesh_spec(scenario_seed, rng)
    n_backups = rng.choices([0, 1, 2, 3], weights=[5, 45, 30, 20])[0]
    if (gray or backend != "chain") and n_backups == 0:
        # Star backends and gray schedules both need a backup to gate
        # on; backend/gray are not drawn, so the stream is unchanged.
        n_backups = 1
    if rng.random() < 0.7:
        workload = {
            "kind": "echo",
            "total_bytes": rng.randrange(20_000, 80_000, 4096),
            "chunk": rng.choice([1024, 2048, 4096]),
        }
    else:
        workload = {
            "kind": "ttcp",
            "buflen": rng.choice([256, 1024, 4096]),
            "nbuf": rng.randint(20, 60),
        }
    duration = round(rng.uniform(25.0, 60.0), 1)
    spec = ScenarioSpec(
        seed=scenario_seed,
        n_backups=n_backups,
        loss=round(rng.uniform(0.0, 0.05), 4) if rng.random() < 0.4 else 0.0,
        latency=round(rng.uniform(0.0005, 0.005), 5),
        mtu=rng.choice([1500, 1500, 1500, 576]),
        workload=workload,
        duration=duration,
        faults=_gen_faults(rng, n_backups, duration),
        gray=gray,
        backend=backend,
    )
    if gray:
        # Drawn *after* every classic draw so the classic stream — and
        # therefore every pre-existing seed's scenario — is unchanged.
        spec.faults = sorted(
            spec.faults + _gen_gray_faults(rng, n_backups, duration), key=fault_time
        )
        # Gray faults only bite while traffic is in flight: a one-shot
        # echo blast finishes in well under a second, long before any
        # fault window opens, and a wedged successor would never be
        # *observed* stalling anything.  Replace the workload with a
        # paced stream spanning every fault window (plus headroom for
        # the excision + fail-over round the defenses are allowed).
        last_fault_end = max(fault_time(f) + f.get("duration", 0.0) for f in spec.faults)
        spec.workload = {
            "kind": "paced_echo",
            "chunk": rng.choice([1024, 2048]),
            "every": rng.choice([0.02, 0.025]),
            "until": round(min(last_fault_end + 4.0, 2.0 + duration - 4.0), 3),
        }
    return spec


# -- scenario execution ------------------------------------------------------


def build_fuzz_system(spec: ScenarioSpec) -> FtSystem:
    """The classic testbed (:func:`~repro.experiments.testbeds.build_ft_system`)
    with the scenario's topology knobs, *without* the ``REPRO_SEED_OFFSET``
    shift — corpus replay must be byte-identical in every environment."""
    echo = spec.workload.get("kind", "echo") == "echo"
    return build_ft_system(
        seed=spec.seed,
        n_backups=spec.n_backups,
        n_spares=spec.n_spares,
        detector=DetectorParams(
            threshold=3,
            cooldown=1.0,
            # Gray scenarios arm graceful degradation so slow-but-alive
            # successors get excised instead of stalling output forever.
            degradation_timeout=GRAY_DEGRADATION_TIMEOUT if spec.gray else None,
        ),
        factory=echo_server_factory if echo else ttcp_sink_factory,
        port=7 if echo else TTCP_PORT,
        strategy=spec.backend,
        latency=spec.latency,
        mtu=spec.mtu,
        loss=spec.loss,
        env_offset=False,
    )


#: Fault op -> (plan method, kind of target).  A ``link`` op names its
#: link in the ``link`` key, the others their host or ``FtNode`` in
#: ``target``; the op's remaining keys are the method's keyword
#: arguments, defaults included.
FAULT_OPS = {
    "crash": ("crash_at", "host"),
    "crash_for": ("crash_for", "host"),
    "crash_cycle": ("crash_cycle", "host"),
    "partition": ("partition_at", "link"),
    "partition_oneway": ("partition_oneway_at", "link"),
    "loss_burst": ("loss_burst", "link"),
    "slow_host": ("slow_host_at", "host"),
    "asym_loss": ("asymmetric_loss_at", "link"),
    "corrupt_ack": ("corrupt_ack_at", "link"),
    "reorder_ack": ("reorder_ack_at", "link"),
    "lie_progress": ("lie_progress_at", "node"),
}


def _apply_faults(sim, faults: list, targets: dict, recommission=None) -> GrayFaultPlan:
    """The one fault-op interpreter, for classic and mesh runs alike.
    ``targets`` maps each target kind of :data:`FAULT_OPS` to the
    topology's name resolver; ``recommission(name)``, classic runs
    only, fires the ``recommission`` op.  GrayFaultPlan is a strict
    superset of FaultPlan: classic ops behave identically."""
    plan = GrayFaultPlan(sim)
    for op in faults:
        args = dict(op)
        kind = args.pop("op", None)
        if kind == "recommission" and recommission is not None:
            sim.schedule_at(args["at"], recommission, args["target"])
            continue
        if kind not in FAULT_OPS:
            raise ValueError(f"unknown fault op {kind!r}")
        method, role = FAULT_OPS[kind]
        target = targets[role](args.pop("link" if role == "link" else "target"))
        getattr(plan, method)(target, **args)
    return plan


def _run_mesh_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Mesh variant of :func:`run_scenario`: compile the small mesh,
    arm the monitors on every redirector, apply the fault schedule, and
    drive the closed-loop client population.  The topology seed ignores
    ``REPRO_SEED_OFFSET`` (``env_offset=False``) — corpus replays must
    be byte-identical in every environment."""
    cfg = spec.mesh or {}
    topo_spec = generate_topology(
        cfg.get("kind", "hub_and_spoke"),
        cfg.get("params"),
        seed=spec.seed * 2654435761 % (2**31),
        env_offset=False,
    )
    workload = MeshWorkload(**dict(cfg.get("workload", {}), deadline=spec.duration))
    with MeshScenario(topo_spec, workload) as scenario:
        mesh, invset = scenario.mesh, scenario.invariants
        targets = {
            "host": {**mesh.host_servers, **mesh.redirectors}.__getitem__,
            # A host's uplink to its redirector (a spoke's: to the hub).
            "link": lambda name: mesh.topo.find_link(name, mesh.rack_of(name)),
            "node": mesh.ft_nodes.__getitem__,
        }
        _apply_faults(mesh.sim, spec.faults, targets)

        report = scenario.run()
        return ScenarioResult(
            spec=spec,
            violations=list(invset.violations),
            violated_monitors=invset.violated_monitors(),
            # The mesh report fingerprint already covers per-connection
            # results, canonical stream digests, violations and counters.
            fingerprint=report.fingerprint,
            client_received=report.completed,
            stats=dict(invset.stats),
        )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Build, arm, fault, and drive one scenario to completion."""
    if spec.mesh:
        return _run_mesh_scenario(spec)
    with build_fuzz_system(spec) as system:
        invset = attach_invariants(system)
        if spec.gray:
            invset.output_liveness.bound = GRAY_LIVENESS_BOUND
        hosts = {hs.name: hs for hs in system.servers}

        def recommission(name: str) -> None:
            if hosts[name].crashed:
                hosts[name].recover()
            for handle in system.service.replicas:
                if handle.node.host_server.name == name:
                    system.service.recommission(handle)
                    break

        targets = {
            "host": hosts.__getitem__,
            # hs_i and the client: the link to the redirector.
            "link": lambda name: system.topo.find_link("redirector", name),
            "node": {node.host_server.name: node for node in system.nodes}.__getitem__,
        }
        _apply_faults(system.sim, spec.faults, targets, recommission)

        workload = spec.workload
        kind = workload.get("kind", "echo")
        stream = None
        if kind in ("echo", "paced_echo"):
            # paced_echo is the gray-failure workload: a steady stream for
            # the whole fault horizon, so a wedged/lying successor has live
            # output to stall.
            pacing = (
                {"total_bytes": workload["total_bytes"]}
                if kind == "echo"
                else {
                    "every": workload.get("every", 0.025),
                    "start": 2.5,
                    "until": workload.get("until", 2.0 + spec.duration),
                }
            )
            stream = EchoStream(
                system.client_node,
                system.service_ip,
                system.port,
                chunk=workload.get("chunk", 2048),
                **pacing,
            )
        else:
            TtcpSender(
                system.client_node,
                system.service_ip,
                system.port,
                buflen=workload.get("buflen", 1024),
                nbuf=workload.get("nbuf", 40),
            ).start()

        system.sim.run(until=2.0 + spec.duration)

        got = bytes(stream.received) if stream is not None else b""
        # Safety, not liveness: with every replica dead the client stalls —
        # fine — but the bytes it *did* get must be the true echo prefix.
        if stream is not None and got != stream.sent[: len(got)]:
            invset.report(
                "stream-integrity",
                f"client received {len(got)} bytes that are not a prefix of "
                "the echoed payload",
            )

        fingerprint = hashlib.sha256()
        fingerprint.update(got)
        streams = invset.stream_integrity.digest()
        fingerprint.update(
            json.dumps(
                {
                    "client_len": len(got),
                    "streams": streams,
                    "violations": invset.violated_monitors(),
                },
                sort_keys=True,
            ).encode()
        )
        return ScenarioResult(
            spec=spec,
            violations=list(invset.violations),
            violated_monitors=invset.violated_monitors(),
            fingerprint=fingerprint.hexdigest(),
            client_received=len(got),
            stats=dict(invset.stats),
        )


# -- protocol mutations (for the mutation check and corpus triage) -----------


def _ungated(buffer: str, field: str):
    """A ``push_gates`` replacement: the one writer of the commit points
    then always publishes ``UNGATED`` into ``conn.<buffer>.<field>``."""

    def make(push_gates):
        def ungated_push_gates(self):
            push_gates(self)
            setattr(getattr(self.conn, buffer), field, UNGATED)

        return ungated_push_gates

    return make


def _returning(value):
    """A method replacement that ignores the original and only returns ``value``."""
    return lambda original: lambda *args: value


#: Each mutation removes one protocol gate or check, as patches
#: ``(owner, attribute, make_replacement)``: :func:`mutated` sets
#: ``owner.attribute`` to ``make_replacement(original)`` and restores it.
MUTATIONS = {
    None: (),
    # Replicas deposit without waiting for the successor's
    # acknowledgement: the Atomicity monitors must fire.
    "deposit_gate": ((FtConnectionState, "push_gates", _ungated("reassembler", "ceiling")),),
    # The primary sends response bytes before the successor reported
    # matching sequence numbers: OutputOrdering must fire.
    "output_gate": ((FtConnectionState, "push_gates", _ungated("send_buffer", "commit")),),
    # No epoch fence: a partitioned ex-primary's stale segments sail
    # through towards the client; SinglePrimary's past-the-fence check
    # must fire.
    "fence": ((Redirector, "_fence_hook", _returning(False)),),
    # No watermark plausibility bound: a lying member's inflated claims
    # are applied verbatim; ProgressTruthfulness must fire under --gray.
    "progress_check": ((members, "PROGRESS_SLACK", lambda slack: math.inf),),
    # Corrupted-in-flight ack-channel messages pass the checksum and
    # reach the watermark logic; ProgressTruthfulness must notice the
    # impossible claims under --gray.
    "ack_checksum": ((AckChannelMessage, "checksum_valid", _returning(True)),),
    # Neither degraded-successor nor lie-evidence reporting excises a
    # gray member: one whose rejected reports keep it looking alive
    # stalls primary output, and OutputLiveness must fire under --gray.
    "excision": (
        (FtPort, "_degradation_check", _returning(None)),
        (FtPort, "_note_lie_evidence", _returning(None)),
    ),
}


@contextmanager
def mutated(name: Optional[str]):
    """Apply the patches of mutation ``name`` (``None``: none) for the
    duration of the block."""
    applied = []
    try:
        for owner, attribute, make_replacement in MUTATIONS[name]:
            original = getattr(owner, attribute)
            setattr(owner, attribute, make_replacement(original))
            applied.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(applied):
            setattr(owner, attribute, original)


def run_with_mutation(spec: ScenarioSpec, mutation: Optional[str]) -> ScenarioResult:
    with mutated(mutation):
        return run_scenario(spec)


# -- pool worker entry points -------------------------------------------------
#
# Workers receive *plain data* — an integer seed or a spec's JSON dict —
# and derive everything else themselves.  In particular the scenario is
# regenerated from the integer seed *inside* the worker, so no parent-
# process RNG state (or any other inherited mutable state) can leak
# into what a forked worker simulates: an in-process run and a pooled
# run of the same seed are byte-identical by construction.


def _summary(result: ScenarioResult) -> dict:
    """The JSON-able part of ``result`` the CLI and
    :func:`save_reproducer` read."""
    return {
        "violated_monitors": list(result.violated_monitors),
        "violations": [str(v) for v in result.violations],
        "fingerprint": result.fingerprint,
        "client_received": result.client_received,
    }


def scenario_task(
    scenario_seed: int,
    mutation: Optional[str] = None,
    gray: bool = False,
    backend: str = "chain",
) -> dict:
    """Pool task: derive the scenario purely from its integer seed (in
    the worker) and run it; returns a JSON-able summary."""
    spec = generate_spec(scenario_seed, gray=gray, backend=backend)
    return _summary(run_with_mutation(spec, mutation))


def spec_task(spec_data: dict, mutation: Optional[str] = None) -> dict:
    """Pool task for non-seed-derivable specs (shrink candidates,
    corpus replays): the full spec travels as plain JSON."""
    spec = ScenarioSpec.from_json(spec_data)
    return _summary(run_with_mutation(spec, mutation))


# -- corpus files -------------------------------------------------------------


def save_reproducer(
    path: Path,
    spec: ScenarioSpec,
    mutation: Optional[str],
    mutated_result: dict,
    clean_result: dict,
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "spec": spec.to_json(),
                "found_with_mutation": mutation,
                "violations_under_mutation": mutated_result["violated_monitors"],
                "mutated_fingerprint": mutated_result["fingerprint"],
                "clean_fingerprint": clean_result["fingerprint"],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def load_reproducer(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    data["spec"] = ScenarioSpec.from_json(data["spec"])
    return data


# -- CLI ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Imported here, as main() imports the pool: code that only runs
    # scenarios (the ledger's fault_churn) must not load multiprocessing.
    from repro.runtime import positive

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Fuzz HydraNet-FT fault schedules with invariant "
        "monitors armed; shrink and save reproducers on violation.",
    )
    parser.add_argument("--runs", type=positive(int), default=50)
    parser.add_argument("--seed", type=int, default=0, help="base scenario seed")
    parser.add_argument("--replay", type=Path, help="replay one corpus JSON file")
    parser.add_argument(
        "--mutate",
        choices=sorted(k for k in MUTATIONS if k),
        help="run with a protocol gate disabled (mutation check / triage)",
    )
    parser.add_argument(
        "--gray",
        action="store_true",
        help="layer gray-failure ops (slow/asymmetric/corrupt/lying "
        "replicas) onto every generated scenario",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(available_strategies()) + ["all"],
        default="chain",
        help="replication backend the replicas run (DESIGN.md §15); "
        "'all' fuzzes every registered backend on every seed",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("fuzz-finds"),
        help="reproducer output directory; adding a find to the committed "
        "corpus is a deliberate `--out tests/fuzz_corpus`",
    )
    parser.add_argument(
        "--shrink-budget", type=positive(int), default=200, help="max shrink candidate runs"
    )
    parser.add_argument(
        "--jobs",
        type=positive(int),
        default=1,
        metavar="N",
        help="worker processes for the scenario batch (default 1 = in-process)",
    )
    parser.add_argument(
        "--task-timeout",
        type=positive(float),
        default=300.0,
        metavar="SECONDS",
        help="per-scenario timeout when --jobs > 1 (default 300)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoize scenario results on disk (source change invalidates)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, help="result-cache directory"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            entry = load_reproducer(args.replay)
            # A zero-length dry run declares the whole schedule: bad
            # input fails here, as a usage error, before the real run.
            run_scenario(dc_replace(entry["spec"], duration=0.0))
        except (
            OSError, ValueError, LookupError, TypeError, TopologyError, TopoBuildError,
            SimulationError,
        ) as exc:
            parser.error(f"cannot replay {args.replay}: {type(exc).__name__}: {exc}")
        result = run_with_mutation(entry["spec"], args.mutate)
        print(f"replay {args.replay.name}: fingerprint {result.fingerprint[:16]}…")
        for violation in result.violations:
            print(f"  {violation}")
        clean = args.mutate is None
        expected = entry.get("clean_fingerprint" if clean else "mutated_fingerprint")
        if clean and result.violations:
            print("FAIL: violations on unmutated code")
            return 2
        if expected and result.fingerprint != expected:
            print(f"FAIL: fingerprint drifted (expected {expected[:16]}…)")
            return 3
        if clean:
            print(f"OK: clean, {'fingerprint matches' if expected else 'no fingerprint recorded'}")
        else:
            print(f"violated: {result.violated_monitors or 'nothing'}")
        return 0

    # A find is saved only after it is shrunk: refuse an unusable --out
    # before the first run rather than lose the find at the end.
    blocker = next((p for p in (args.out, *args.out.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        parser.error(f"--out {args.out}: {blocker} is not a directory")

    from repro.runtime import DeterministicMerger, ResultCache, ScenarioPool, Task
    from repro.runtime import task_fingerprint

    from .shrink import shrink_spec

    cache = ResultCache(root=args.cache_dir) if args.cache else None

    # Phase 1 — the seed batch, fanned out over the pool.  Each task
    # carries only its integer seed (plus the backend name); the worker
    # regenerates the spec from them (see ``scenario_task``).  The specs
    # generated here in the parent are used purely for the progress line
    # and the cost hint.  Chain tasks keep their historic ``seed{n}``
    # keys so cached results survive the multi-backend CLI.
    backends = (
        sorted(available_strategies()) if args.backend == "all" else [args.backend]
    )

    def task_key(seed: int, backend: str) -> str:
        return f"seed{seed}" if backend == "chain" else f"seed{seed}.{backend}"

    seeds = [args.seed + i for i in range(args.runs)]
    parent_specs = {}
    tasks = []
    for backend in backends:
        for seed in seeds:
            spec = generate_spec(seed, gray=args.gray, backend=backend)
            parent_specs[task_key(seed, backend)] = spec
            task = Task(
                key=task_key(seed, backend),
                fn=scenario_task,
                kwargs={
                    "scenario_seed": seed,
                    "mutation": args.mutate,
                    "gray": args.gray,
                    "backend": backend,
                },
                # Longer simulations with longer chains chew more events;
                # mesh scenarios simulate several racks at once.
                cost=spec.duration * (3.0 if spec.mesh else 1.0 + spec.n_backups),
                timeout=args.task_timeout,
            )
            task.fingerprint = task_fingerprint(task)
            tasks.append(task)

    def show(outcome):
        seed_part, _, backend_part = outcome.key.removeprefix("seed").partition(".")
        seed = int(seed_part)
        spec = parent_specs[outcome.key]
        if outcome.ok:
            tag = ",".join(outcome.value["violated_monitors"]) or "ok"
        else:
            tag = f"ERROR({outcome.status})"
        shape = (
            f"mesh[{spec.mesh['params']['spokes'] + 1}rd,"
            f"{spec.mesh['params']['services']}svc]"
            if spec.mesh
            else f"backups={spec.n_backups}"
        )
        backend_tag = f" [{backend_part}]" if backend_part else ""
        print(
            f"run {seed - args.seed:3d} seed={seed}{backend_tag} {shape} "
            f"faults={len(spec.faults)} -> {tag}"
        )

    merger = DeterministicMerger([t.key for t in tasks], show)
    with ScenarioPool(jobs=args.jobs, cache=cache) as pool:
        outcomes = pool.run(tasks, on_result=merger.offer)

        # Phase 2 — shrink each violating seed, in ascending seed order
        # so output and corpus files match a serial run exactly.  The
        # ddmin loop is inherently sequential (every candidate depends
        # on the previous verdict) but each candidate replays through
        # the pool, keeping isolation and the per-task timeout.
        found = 0
        broken: list[str] = []
        counter = [0]

        def pooled(spec: ScenarioSpec, mutation) -> Optional[dict]:
            counter[0] += 1
            outcome = pool.run_one(
                Task(
                    key=f"candidate{counter[0]}",
                    fn=spec_task,
                    kwargs={"spec_data": spec.to_json(), "mutation": mutation},
                    timeout=args.task_timeout,
                )
            )
            if not outcome.ok:
                broken.append(f"{outcome.key}: {outcome.status} ({outcome.error})")
                return None
            return outcome.value

        for backend in backends:
            for seed in seeds:
                key = task_key(seed, backend)
                outcome = outcomes[key]
                if not outcome.ok:
                    broken.append(f"{key}: {outcome.status} ({outcome.error})")
                    continue
                violated = outcome.value["violated_monitors"]
                if not violated:
                    continue
                found += 1
                spec = parent_specs[key]
                target = set(violated)

                def reproduces(candidate: ScenarioSpec) -> bool:
                    result = pooled(candidate, args.mutate)
                    return result is not None and bool(
                        target & set(result["violated_monitors"])
                    )

                small = shrink_spec(spec, reproduces, budget=args.shrink_budget)
                small_result = pooled(small, args.mutate)
                clean_result = pooled(small, None)
                if small_result is None or clean_result is None:
                    continue
                prefix = args.mutate or "found"
                if backend == "chain":
                    name = f"{prefix}-seed{seed}.json"
                else:
                    name = f"{prefix}-{backend}-seed{seed}.json"
                try:
                    save_reproducer(
                        args.out / name, small, args.mutate, small_result, clean_result
                    )
                except OSError as exc:  # a full disk, say
                    parser.error(f"--out {args.out}: cannot save {name}: {exc.strerror or exc}")
                print(
                    f"  shrunk to {len(small.faults)} fault(s), "
                    f"{small.workload} — saved {args.out / name}"
                )
                if clean_result["violated_monitors"]:
                    print(
                        "  NOTE: reproducer violates on UNMUTATED code — real bug!"
                    )

    print(f"{len(tasks)} runs, {found} violating")
    if broken:
        print(f"{len(broken)} scenario task(s) failed to execute:")
        for line in broken:
            print(f"  {line}")
        return 1
    return 1 if (found and args.mutate is None) else 0


if __name__ == "__main__":
    raise SystemExit(main())
