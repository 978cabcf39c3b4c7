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
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from repro.apps.echo import echo_server_factory
from repro.apps.ttcp import TTCP_TCP_OPTIONS, TtcpSender, ttcp_sink_factory
from repro.core import DetectorParams, FtNode, ReplicatedTcpService
from repro.experiments.testbeds import (
    CLIENT_486,
    LINK_BANDWIDTH,
    LINK_QUEUE,
    REDIRECTOR_486,
    SERVER_P120,
    SERVICE_IP,
    FtSystem,
)
from repro.faults import FaultPlan, GrayFaultPlan
from repro.hydranet import HostServer, Redirector, RedirectorDaemon
from repro.netsim import Simulator, Topology
from repro.replication import available_strategies
from repro.sockets import node_for
from repro.topo import MeshScenario, MeshWorkload
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
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    violations: list
    violated_monitors: list
    fingerprint: str
    client_received: int
    stats: dict


# -- scenario generation ----------------------------------------------------


def _drop_overlapping_partitions(faults: list) -> list:
    """Drop partition ops whose window overlaps an earlier partition
    window on the same link direction (generation order):
    :class:`~repro.faults.FaultPlan` rejects such schedules, because
    the earlier window's heal would silently re-raise the channel in
    the middle of the later window.  Runs *after* every RNG draw, so
    pre-existing seeds keep their streams — only the (previously
    silently-miscomposed) overlapping op disappears."""
    taken: dict[str, list[tuple[float, float]]] = {}
    kept = []
    for op in faults:
        kind = op.get("op")
        if kind in ("partition", "partition_oneway"):
            start = op["at"]
            end = (
                float("inf")
                if op.get("duration") is None
                else start + op["duration"]
            )
            directions = (
                (op["direction"],) if kind == "partition_oneway" else ("a_to_b", "b_to_a")
            )
            keys = [f"{op['link']}:{d}" for d in directions]
            if any(
                start < e and s < end
                for key in keys
                for s, e in taken.get(key, [])
            ):
                continue
            for key in keys:
                taken.setdefault(key, []).append((start, end))
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
        # Transfers complete within a few seconds of traffic start
        # (t=2.0), so faults land early — mid-transfer, where the
        # promotion/fencing/retransmission races live.
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
    faults.sort(key=lambda f: f.get("at", f.get("start", 0.0)))
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
    faults.sort(key=lambda f: f.get("at", f.get("start", 0.0)))
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
    faults.sort(key=lambda f: f.get("at", f.get("start", 0.0)))
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
            spec.faults + _gen_gray_faults(rng, n_backups, duration),
            key=lambda f: f.get("at", f.get("start", 0.0)),
        )
        # Gray faults only bite while traffic is in flight: a one-shot
        # echo blast finishes in well under a second, long before any
        # fault window opens, and a wedged successor would never be
        # *observed* stalling anything.  Replace the workload with a
        # paced stream spanning every fault window (plus headroom for
        # the excision + fail-over round the defenses are allowed).
        last_fault_end = max(
            (f.get("at", f.get("start", 0.0)) + f.get("duration", 0.0))
            for f in spec.faults
        )
        spec.workload = {
            "kind": "paced_echo",
            "chunk": rng.choice([1024, 2048]),
            "every": rng.choice([0.02, 0.025]),
            "until": round(min(last_fault_end + 4.0, 2.0 + duration - 4.0), 3),
        }
    return spec


# -- scenario execution ------------------------------------------------------


def build_fuzz_system(spec: ScenarioSpec) -> FtSystem:
    """Like :func:`~repro.experiments.testbeds.build_ft_system` but with
    the fuzzer's topology knobs and *without* the ``REPRO_SEED_OFFSET``
    shift — corpus replay must be byte-identical in every environment."""
    echo = spec.workload.get("kind", "echo") == "echo"
    factory = echo_server_factory if echo else ttcp_sink_factory
    port = 7 if echo else 5001
    sim = Simulator(seed=spec.seed)
    topo = Topology(sim)
    link_kw = dict(
        bandwidth_bps=LINK_BANDWIDTH,
        latency=spec.latency,
        queue_capacity=LINK_QUEUE,
        mtu=spec.mtu,
    )
    client = topo.add_host("client", CLIENT_486)
    redirector = Redirector(sim, "redirector", REDIRECTOR_486)
    topo.add(redirector)
    servers = []
    for i in range(1 + spec.n_backups + spec.n_spares):
        hs = HostServer(sim, f"hs_{i}", SERVER_P120)
        topo.add(hs)
        servers.append(hs)
    topo.connect(client, redirector, loss_rate=spec.loss, **link_kw)
    for hs in servers:
        topo.connect(redirector, hs, **link_kw)
    topo.add_external_network(f"{SERVICE_IP}/32", redirector)
    topo.build_routes()
    daemon = RedirectorDaemon(redirector)
    nodes = [FtNode(hs, redirector.ip) for hs in servers]
    spare_nodes = nodes[1 + spec.n_backups :]
    detector = DetectorParams(
        threshold=3,
        cooldown=1.0,
        # Gray scenarios arm graceful degradation so slow-but-alive
        # successors get excised instead of stalling output forever.
        degradation_timeout=GRAY_DEGRADATION_TIMEOUT if spec.gray else None,
    )
    service = ReplicatedTcpService(
        SERVICE_IP,
        port,
        factory,
        detector=detector,
        tcp_options=TTCP_TCP_OPTIONS,
        strategy=spec.backend,
    )
    service.add_primary(nodes[0])
    for node in nodes[1 : 1 + spec.n_backups]:
        service.add_backup(node)
    sim.run(until=2.0)  # registration + chain setup
    client_node = node_for(client, TTCP_TCP_OPTIONS)
    return FtSystem(
        sim,
        topo,
        client,
        client_node,
        redirector,
        daemon,
        servers,
        nodes,
        service,
        SERVICE_IP,
        port,
        spare_nodes,
    )


def _apply_faults(system: FtSystem, spec: ScenarioSpec) -> FaultPlan:
    # GrayFaultPlan is a strict superset of FaultPlan: classic ops
    # behave identically, so one plan class serves both modes.
    plan = GrayFaultPlan(system.sim)
    hosts = {hs.name: hs for hs in system.servers}
    nodes = {node.host_server.name: node for node in system.nodes}

    def link_for(name: str):
        if name == "client":
            return system.topo.find_link("client", "redirector")
        return system.topo.find_link("redirector", name)

    for op in spec.faults:
        kind = op["op"]
        if kind == "crash":
            plan.crash_at(hosts[op["target"]], op["at"])
        elif kind == "crash_for":
            plan.crash_for(hosts[op["target"]], op["at"], op["duration"])
        elif kind == "crash_cycle":
            plan.crash_cycle(
                hosts[op["target"]],
                op["start"],
                op["period"],
                op["downtime"],
                op["count"],
            )
        elif kind == "partition":
            plan.partition_at(link_for(op["link"]), op["at"], op.get("duration"))
        elif kind == "partition_oneway":
            plan.partition_oneway_at(
                link_for(op["link"]), op["direction"], op["at"], op.get("duration")
            )
        elif kind == "loss_burst":
            plan.loss_burst(
                link_for(op["link"]), op["at"], op["duration"], op["loss_rate"]
            )
        elif kind == "slow_host":
            plan.slow_host_at(
                hosts[op["target"]], op["at"], op["duration"], op.get("factor", 10.0)
            )
        elif kind == "asym_loss":
            plan.asymmetric_loss_at(
                link_for(op["link"]),
                op["direction"],
                op["at"],
                op["duration"],
                op["loss_rate"],
            )
        elif kind == "corrupt_ack":
            plan.corrupt_ack_at(
                link_for(op["link"]),
                op["direction"],
                op["at"],
                op["duration"],
                op.get("rate", 0.5),
            )
        elif kind == "reorder_ack":
            plan.reorder_ack_at(
                link_for(op["link"]),
                op["direction"],
                op["at"],
                op["duration"],
                op.get("delay", 0.05),
                op.get("rate", 0.5),
            )
        elif kind == "lie_progress":
            plan.lie_progress_at(
                nodes[op["target"]],
                op["at"],
                op["duration"],
                op.get("inflate", 1_000_000),
            )
        elif kind == "recommission":
            target = op["target"]

            def fire(name=target):
                host = hosts[name]
                if host.crashed:
                    host.recover()
                handle = next(
                    (
                        h
                        for h in system.service.replicas
                        if h.node.host_server.name == name
                    ),
                    None,
                )
                if handle is not None:
                    system.service.recommission(handle)

            system.sim.schedule_at(op["at"], fire)
        else:
            raise ValueError(f"unknown fault op {kind!r}")
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

        plan = FaultPlan(mesh.sim)
        hosts = {**mesh.host_servers, **mesh.redirectors}

        def link_for(name: str):
            for neighbor in topo_spec.neighbors(name):
                if neighbor != name and neighbor in mesh.redirectors:
                    return mesh.topo.find_link(name, neighbor)
            raise ValueError(f"no redirector uplink for mesh host {name!r}")

        for op in spec.faults:
            kind = op["op"]
            if kind == "crash":
                plan.crash_at(hosts[op["target"]], op["at"])
            elif kind == "crash_for":
                plan.crash_for(hosts[op["target"]], op["at"], op["duration"])
            elif kind == "partition":
                plan.partition_at(link_for(op["link"]), op["at"], op.get("duration"))
            elif kind == "loss_burst":
                plan.loss_burst(
                    link_for(op["link"]), op["at"], op["duration"], op["loss_rate"]
                )
            else:
                raise ValueError(f"unknown mesh fault op {kind!r}")

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
        _apply_faults(system, spec)

        workload = spec.workload
        got = bytearray()
        payload = b""
        paced_sent = bytearray()
        kind = workload.get("kind", "echo")
        if kind == "echo":
            total = workload["total_bytes"]
            chunk = workload.get("chunk", 2048)
            payload = (bytes(range(251)) * (total // 251 + 1))[:total]
            conn = system.client_node.connect(system.service_ip, system.port)
            sent = {"n": 0}

            def pump():
                while sent["n"] < total:
                    n = conn.send(payload[sent["n"] : sent["n"] + chunk])
                    sent["n"] += n
                    if n == 0:
                        return

            conn.on_established = pump
            conn.on_send_space = pump
            conn.on_data = got.extend
        elif kind == "paced_echo":
            # Gray-failure workload: a steady stream for the whole fault
            # horizon, so a wedged/lying successor has live output to
            # stall.  The payload is whatever the socket accepted — the
            # prefix check below runs against it after the horizon.
            chunk = workload.get("chunk", 2048)
            every = workload.get("every", 0.025)
            until = workload.get("until", 2.0 + spec.duration)
            conn = system.client_node.connect(system.service_ip, system.port)
            beat = {"n": 0}

            def pace():
                if system.sim.now >= until:
                    return
                data = bytes([beat["n"] % 251]) * chunk
                accepted = conn.send(data)
                paced_sent.extend(data[:accepted])
                beat["n"] += 1
                system.sim.schedule(every, pace)

            conn.on_data = got.extend
            system.sim.schedule_at(2.5, pace)
        else:
            sender = TtcpSender(
                system.client_node,
                system.service_ip,
                system.port,
                buflen=workload.get("buflen", 1024),
                nbuf=workload.get("nbuf", 40),
            )
            sender.start()

        system.sim.run(until=2.0 + spec.duration)
        pace = None  # it reschedules itself: a cycle through its own cell, holding the system

        if paced_sent:
            payload = bytes(paced_sent)
        # Safety, not liveness: with every replica dead the client stalls —
        # fine — but the bytes it *did* get must be the true echo prefix.
        if payload and bytes(got) != payload[: len(got)]:
            invset.report(
                "stream-integrity",
                f"client received {len(got)} bytes that are not a prefix of "
                "the echoed payload",
            )

        fingerprint = hashlib.sha256()
        fingerprint.update(bytes(got))
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


@contextmanager
def _mutate_deposit_gate():
    """Disable the deposit gate: replicas deposit without waiting for
    the successor's acknowledgement — the Atomicity monitors must fire."""
    from repro.core.ft_tcp import FtConnectionState

    original = FtConnectionState.deposit_ceiling
    FtConnectionState.deposit_ceiling = lambda self: None
    try:
        yield
    finally:
        FtConnectionState.deposit_ceiling = original


@contextmanager
def _mutate_output_gate():
    """Disable the output gate: the primary sends response bytes before
    the successor reported matching sequence numbers."""
    from repro.core.ft_tcp import FtConnectionState

    original = FtConnectionState.transmit_ceiling
    FtConnectionState.transmit_ceiling = lambda self: None
    try:
        yield
    finally:
        FtConnectionState.transmit_ceiling = original


@contextmanager
def _mutate_fence():
    """Disable the redirector's epoch fence: a partitioned ex-primary's
    stale segments sail through towards the client — the SinglePrimary
    monitor's past-the-fence check must fire."""
    original = Redirector._fence_hook
    Redirector._fence_hook = lambda self, packet, nic: False
    try:
        yield
    finally:
        Redirector._fence_hook = original


@contextmanager
def _mutate_progress_check():
    """Disable progress-report plausibility validation: a lying backup's
    inflated watermarks are applied verbatim — ProgressTruthfulness
    (and, downstream, the gate monitors) must fire under ``--gray``."""
    from repro.core.ft_tcp import FtConnectionState

    original = FtConnectionState.validate_progress
    FtConnectionState.validate_progress = False
    try:
        yield
    finally:
        FtConnectionState.validate_progress = original


@contextmanager
def _mutate_ack_checksum():
    """Disable ack-channel checksum validation: corrupted-in-flight
    messages reach the watermark logic — ProgressTruthfulness must
    notice the impossible claims under ``--gray``."""
    from repro.core.ack_channel import AckChannelEndpoint

    original = AckChannelEndpoint.validate_checksums
    AckChannelEndpoint.validate_checksums = False
    try:
        yield
    finally:
        AckChannelEndpoint.validate_checksums = original


@contextmanager
def _mutate_excision():
    """Disable the gray-failure excision pathway — both degraded-
    successor reporting and lie-evidence reporting.  A successor whose
    (rejected) reports keep it looking alive then stalls primary output
    indefinitely, because the classic quiet-based check never sees
    silence — OutputLiveness must fire under ``--gray``."""
    from repro.core.ft_tcp import FtPort

    degradation = FtPort._degradation_check
    lie_evidence = FtPort._note_lie_evidence
    FtPort._degradation_check = lambda self, now, quiet: None
    FtPort._note_lie_evidence = lambda self, state, suspect=None: None
    try:
        yield
    finally:
        FtPort._degradation_check = degradation
        FtPort._note_lie_evidence = lie_evidence


@contextmanager
def _no_mutation():
    yield


MUTATIONS = {
    None: _no_mutation,
    "deposit_gate": _mutate_deposit_gate,
    "output_gate": _mutate_output_gate,
    "fence": _mutate_fence,
    "progress_check": _mutate_progress_check,
    "ack_checksum": _mutate_ack_checksum,
    "excision": _mutate_excision,
}


def run_with_mutation(spec: ScenarioSpec, mutation: Optional[str]) -> ScenarioResult:
    with MUTATIONS[mutation]():
        return run_scenario(spec)


# -- pool worker entry points -------------------------------------------------
#
# Workers receive *plain data* — an integer seed or a spec's JSON dict —
# and derive everything else themselves.  In particular the scenario is
# regenerated from the integer seed *inside* the worker, so no parent-
# process RNG state (or any other inherited mutable state) can leak
# into what a forked worker simulates: an in-process run and a pooled
# run of the same seed are byte-identical by construction.


class _ResultSummary:
    """Picklable, attribute-compatible subset of :class:`ScenarioResult`
    (what the CLI and :func:`save_reproducer` actually consume)."""

    __slots__ = ("violated_monitors", "violations", "fingerprint", "client_received")

    def __init__(self, violated_monitors, violations, fingerprint, client_received):
        self.violated_monitors = violated_monitors
        self.violations = violations
        self.fingerprint = fingerprint
        self.client_received = client_received

    @classmethod
    def from_result(cls, result: ScenarioResult) -> "_ResultSummary":
        return cls(
            violated_monitors=list(result.violated_monitors),
            violations=[str(v) for v in result.violations],
            fingerprint=result.fingerprint,
            client_received=result.client_received,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "_ResultSummary":
        return cls(**data)

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def scenario_task(
    scenario_seed: int,
    mutation: Optional[str] = None,
    gray: bool = False,
    backend: str = "chain",
) -> dict:
    """Pool task: derive the scenario purely from its integer seed (in
    the worker) and run it; returns a JSON-able summary."""
    spec = generate_spec(scenario_seed, gray=gray, backend=backend)
    return _ResultSummary.from_result(run_with_mutation(spec, mutation)).to_dict()


def spec_task(spec_data: dict, mutation: Optional[str] = None) -> dict:
    """Pool task for non-seed-derivable specs (shrink candidates,
    corpus replays): the full spec travels as plain JSON."""
    spec = ScenarioSpec.from_json(spec_data)
    return _ResultSummary.from_result(run_with_mutation(spec, mutation)).to_dict()


# -- corpus files -------------------------------------------------------------


def save_reproducer(
    path: Path,
    spec: ScenarioSpec,
    mutation: Optional[str],
    mutated_result: ScenarioResult,
    clean_result: ScenarioResult,
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "spec": spec.to_json(),
                "found_with_mutation": mutation,
                "violations_under_mutation": mutated_result.violated_monitors,
                "mutated_fingerprint": mutated_result.fingerprint,
                "clean_fingerprint": clean_result.fingerprint,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Fuzz HydraNet-FT fault schedules with invariant "
        "monitors armed; shrink and save reproducers on violation.",
    )
    parser.add_argument("--runs", type=int, default=50)
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
        "--shrink-budget", type=int, default=200, help="max shrink candidate runs"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the scenario batch (default 1 = in-process)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
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
    args = parser.parse_args(argv)

    if args.replay is not None:
        entry = load_reproducer(args.replay)
        result = run_with_mutation(entry["spec"], args.mutate)
        print(f"replay {args.replay.name}: fingerprint {result.fingerprint[:16]}…")
        for violation in result.violations:
            print(f"  {violation}")
        if args.mutate is None:
            expected = entry.get("clean_fingerprint")
            if result.violations:
                print("FAIL: violations on unmutated code")
                return 2
            if expected and result.fingerprint != expected:
                print(f"FAIL: fingerprint drifted (expected {expected[:16]}…)")
                return 3
            print("OK: clean, fingerprint matches")
        else:
            expected = entry.get("mutated_fingerprint")
            if expected and result.fingerprint != expected:
                print(f"FAIL: fingerprint drifted (expected {expected[:16]}…)")
                return 3
            print(f"violated: {result.violated_monitors or 'nothing'}")
        return 0

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
            summary = _ResultSummary.from_dict(outcome.value)
            tag = ",".join(summary.violated_monitors) or "ok"
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

        def pooled(spec: ScenarioSpec, mutation) -> Optional[_ResultSummary]:
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
            return _ResultSummary.from_dict(outcome.value)

        for backend in backends:
            for seed in seeds:
                key = task_key(seed, backend)
                outcome = outcomes[key]
                if not outcome.ok:
                    broken.append(f"{key}: {outcome.status} ({outcome.error})")
                    continue
                summary = _ResultSummary.from_dict(outcome.value)
                if not summary.violated_monitors:
                    continue
                found += 1
                spec = parent_specs[key]
                target = set(summary.violated_monitors)

                def reproduces(candidate: ScenarioSpec) -> bool:
                    result = pooled(candidate, args.mutate)
                    return result is not None and bool(
                        target & set(result.violated_monitors)
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
                save_reproducer(
                    args.out / name, small, args.mutate, small_result, clean_result
                )
                print(
                    f"  shrunk to {len(small.faults)} fault(s), "
                    f"{small.workload} — saved {args.out / name}"
                )
                if clean_result.violated_monitors:
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
