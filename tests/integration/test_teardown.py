"""Deterministic teardown gate (DESIGN.md §19).

A driver that owns a system's whole life — ``run_scenario``, ``with
build_primary_backup(...)``, ``with MeshScenario(...)`` — must leave
nothing for the cycle collector: with the collector *disabled*, the
``Simulator`` is dead when the driver returns, a collection afterwards
finds next to nothing, and twenty systems in a row cost less memory
than one.  Teardown drops references, never counters: what the perf
ledger reads off the objects of a run reads the same before and after,
and the results of the schedule-pin cases equal the ones recorded at
the parent of this gate (c73ee28).

Box-independent, like the call-budget and footprint gates.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import weakref
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.apps.echo import EchoStream, echo_server_factory
from repro.core import DetectorParams
from repro.core.heartbeat import enable_heartbeats
from repro.experiments.testbeds import build_clean, build_ft_system, build_primary_backup
from repro.invariants.fuzz import ScenarioSpec, generate_spec, run_scenario
from repro.netsim.simulator import SimulationError, Simulator
from repro.recovery import RecoveryManager, SparePool
from repro.topo import MeshScenario, MeshWorkload, generate

#: Unreachable objects a collection may still find after a teardown
#: (the parent left 8 913 on the gray spec).
LEFTOVER_BUDGET = 100


def _mesh(seed=1, connections=8):
    spec = generate(
        "fat_tree",
        dict(pods=4, edges_per_pod=2, servers_per_edge=3, clients_per_edge=2,
             cores=2, services=32, backups=1),
        seed=seed,
    )
    workload = MeshWorkload(
        connections=connections, requests_per_conn=2, request_size=64,
        think_time=0.15, start_window=0.25, deadline=120.0,
    )
    with MeshScenario(spec, workload) as scenario:
        return scenario.run()


def _ttcp(builder=lambda: build_primary_backup(1, 2, "chain"), buflen=1024, nbuf=64):
    with builder() as run:
        return run.run(buflen=buflen, nbuf=nbuf)


def _scenario(seed, **options):
    spec = generate_spec(seed, **options)
    return lambda: run_scenario(spec)


def _live_join():
    """The primary crashes mid-stream; a RecoveryManager drafts the spare
    and joins it live."""
    with build_ft_system(seed=1, n_spares=1, factory=echo_server_factory,
                         detector=DetectorParams(threshold=3, cooldown=1.0)) as system:
        manager = RecoveryManager(system.service, system.redirector_daemon,
                                  SparePool(system.spare_nodes), target_degree=2)
        EchoStream(system.client_node, system.service_ip, system.port,
                   chunk=400, every=0.05, start=2.5, until=8.0)
        system.sim.schedule_at(3.0, system.servers[0].crash)
        system.run_until(10.0)
        assert manager.joins_completed == 1
        return manager


def _heartbeats():
    """A7's shape: heartbeat detection notices an idle primary's crash."""
    with build_ft_system(seed=1, factory=echo_server_factory,
                         detector=DetectorParams(threshold=1_000_000)) as system:
        detector, senders = enable_heartbeats(
            system.redirector_daemon, system.nodes, system.service_ip, system.port, period=0.5
        )
        system.sim.schedule_at(3.0, system.servers[0].crash)
        system.run_until(6.0)
        for part in (detector, *senders):
            part.dispose()
        assert detector.detections == 1
        return detector


def _ordered_channel():
    """A6's shape: the ordered ack channel retransmits over a lossy link."""
    with build_ft_system(seed=1, factory=echo_server_factory, ordered_channel=True) as system:
        system.topo.find_link("redirector", "hs_1").b_to_a.loss_rate = 0.2
        stream = EchoStream(system.client_node, system.service_ip, system.port,
                            total_bytes=20_000)
        system.run_for(4.0)
        assert len(stream.received) == 20_000
        assert any(node.ack_endpoint.channel_retransmissions for node in system.nodes)
        return stream


#: Ack-channel taps and a lying replica still in place when the run ends.
OPEN_GRAY_WINDOWS = ScenarioSpec(
    seed=1, n_backups=2, gray=True, duration=4.0,
    workload={"kind": "paced_echo", "chunk": 1024, "every": 0.02, "until": 6.0},
    faults=[
        {"op": "corrupt_ack", "link": "hs_1", "direction": "b_to_a", "at": 2.5,
         "duration": 60.0, "rate": 0.5},
        {"op": "reorder_ack", "link": "hs_2", "direction": "b_to_a", "at": 2.5,
         "duration": 60.0, "rate": 0.5, "delay": 0.05},
        {"op": "lie_progress", "target": "hs_2", "at": 3.0, "duration": 60.0},
    ],
)


#: One pinned driver per class.  Gray seed 576 (three backups, an
#: asymmetric loss window, crash cycles, a recommission, 1.4 MiB of
#: paced stream) is the census case of DESIGN.md §19.  The last four
#: build what no generated scenario does: a live join, heartbeats, the
#: ordered ack channel, and fault windows open at teardown.
DRIVERS = {
    "classic": _scenario(9),
    "gray": _scenario(576, gray=True),
    "broadcast": _scenario(576, backend="broadcast"),
    "checkpoint": _scenario(576, backend="checkpoint"),
    "fuzz-mesh": _scenario(22),
    "ttcp": _ttcp,
    "mesh": _mesh,
    "live-join": _live_join,
    "heartbeats": _heartbeats,
    "ordered-channel": _ordered_channel,
    "open-gray-windows": lambda: run_scenario(OPEN_GRAY_WINDOWS),
}
#: The same, for the twenty-in-a-row check: a gray scenario a fiftieth
#: the cost of seed 576 (crashes, corrupted reports, recommission).
CHURN = dict(DRIVERS, gray=_scenario(17, gray=True))


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture
def sims(monkeypatch):
    """Weak references to every ``Simulator`` built during the test."""
    refs: list[weakref.ref] = []
    init = Simulator.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", recording)
    return refs


def _leftovers() -> Counter:
    """Types of the unreachable objects a collection finds now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    gc.set_debug(0)
    found = Counter(type(obj).__name__ for obj in gc.garbage)
    gc.garbage.clear()
    return found


def test_fuzz_mesh_driver_is_a_mesh_scenario():
    assert generate_spec(22).mesh


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_finished_system_is_freed_by_reference_counting(name, sims, collector_off):
    DRIVERS[name]()  # warm: imports, caches, interned constants
    sims.clear()
    gc.collect()
    DRIVERS[name]()
    assert sims, "the driver built no simulator"
    alive = [ref for ref in sims if ref() is not None]
    assert not alive, f"{len(alive)} of {len(sims)} simulators outlive their driver"
    leaked = _leftovers()
    assert sum(leaked.values()) <= LEFTOVER_BUDGET, (
        f"{sum(leaked.values())} unreachable objects left for the collector: "
        f"{leaked.most_common(12)}"
    )


@pytest.mark.parametrize("name", sorted(CHURN))
def test_twenty_systems_in_a_row_cost_less_than_one(name, monkeypatch, collector_off):
    driver = CHURN[name]
    driver()
    live = []
    close = Simulator.close

    def measuring(sim):  # teardown's first step: the system is still whole
        live.append(len(gc.get_objects()))
        close(sim)

    monkeypatch.setattr(Simulator, "close", measuring)
    gc.collect()
    before = len(gc.get_objects())
    driver()
    one_system = max(live) - before
    assert one_system > 300
    monkeypatch.setattr(Simulator, "close", close)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(20):
        driver()
    grown = len(gc.get_objects()) - before
    assert grown < one_system, (
        f"20 systems left {grown} objects behind; one live system is {one_system}"
    )


# -- teardown drops references, never counters --------------------------------


def test_ledger_counters_read_the_same_after_teardown(monkeypatch):
    """Everything ``bench/counters.py`` reads, off the objects the
    ledger's own registry collects, just before and just after."""
    bench = str(Path(__file__).resolve().parents[2] / "bench")
    monkeypatch.syspath_prepend(bench)
    import counters
    from tracer import Registry

    before = []
    close = Simulator.close

    def snapshot(sim):
        before.append(counters.read(registry.instances))
        close(sim)

    registry = Registry()
    registry.install()
    try:
        monkeypatch.setattr(Simulator, "close", snapshot)
        result = run_scenario(generate_spec(576, gray=True))
    finally:
        registry.uninstall()
        for name in ("counters", "tracer", "layers"):
            sys.modules.pop(name, None)
    after = counters.read(registry.instances)
    assert before == [after]
    assert not result.violated_monitors
    for row in ("scheduler.events", "link.packets_sent", "tcp.segments_sent",
                "tcp.rto_timeouts", "ack_channel.messages_sent", "mgmt.promotions"):
        assert after[row] > 0, row
    assert after["tcp.connections"] == len(registry.instances["conn"]) > 0


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _scenario_result(seed, **options):
    r = run_scenario(generate_spec(seed, **options))
    return _digest([r.fingerprint, r.client_received, dict(r.stats), [str(v) for v in r.violations]])


#: The 19 cases of test_schedule_pin.py -> digest of the result the
#: driver returns (``ScenarioResult`` fingerprint, client_received, stats
#: and violations; every ``TtcpResult`` field; the ``MeshReport``
#: fingerprint), recorded at the parent c73ee28.  The eleven ``fuzz*``
#: digests were re-recorded when the monitors' counter-only stats keys
#: (``ack_channel_messages``, ``segments_fenced``, ``client_segments``,
#: ``liveness_ticks``, ``service_output_segments``) were deleted: each
#: equals the old result with those keys left out.
RESULTS_AT_PARENT = {
    ("chain", 1): "d97a26fd5d9a74cc",
    ("chain", 2): "61808cfc4a255767",
    ("clean", 1): "764ca75725b3d42e",
    ("clean", 2): "e21463ffde707caf",
    ("fuzz", 0): "2b8d556aa73dafa2",
    ("fuzz", 3): "431540813c439993",
    ("fuzz", 5): "97655455164570fb",
    ("fuzz", 8): "8114d6bac2f0e171",
    ("fuzz", 12): "5004fc55268ef593",
    ("fuzz_broadcast", 7): "c74d1c9a4d4520c9",
    ("fuzz_broadcast", 62): "117d9181ecd0c2d7",
    ("fuzz_checkpoint", 2): "e025f47a510fb239",
    ("fuzz_checkpoint", 11): "11c5eec6da5af236",
    ("fuzz_gray", 4): "7b10869b0df7fd78",
    ("fuzz_gray", 9): "fb3d0e7bd60d86d4",
    ("mesh", 1): "351144c71dc97af1",
    ("mesh", 2): "de9760b35d0592bc",
    ("star64", 1): "340428ea0963de61",
    ("star64", 2): "c1fb18069897d3a7",
}

_RESULT_OF = {
    "clean": lambda seed: _digest(asdict(_ttcp(lambda: build_clean(seed), 1024, 384 + 16 * seed))),
    "chain": lambda seed: _digest(
        asdict(_ttcp(lambda: build_primary_backup(seed, 2, "chain"), 1024, 384 + 16 * seed))
    ),
    "star64": lambda seed: _digest(
        asdict(_ttcp(lambda: build_primary_backup(seed, 2, "broadcast"), 64, 768 + 16 * seed))
    ),
    "mesh": lambda seed: _mesh(seed, connections=24).fingerprint[:16],
    "fuzz": _scenario_result,
    "fuzz_gray": lambda seed: _scenario_result(seed, gray=True),
    "fuzz_broadcast": lambda seed: _scenario_result(seed, backend="broadcast"),
    "fuzz_checkpoint": lambda seed: _scenario_result(seed, backend="checkpoint"),
}


@pytest.mark.parametrize("shape,seed", sorted(RESULTS_AT_PARENT), ids=lambda v: str(v))
def test_results_equal_the_parents(shape, seed):
    assert _RESULT_OF[shape](seed) == RESULTS_AT_PARENT[(shape, seed)]


# -- the verb itself ------------------------------------------------------------


def test_teardown_is_refused_inside_an_event_and_idempotent_outside():
    run = build_primary_backup(1, 1, "chain")
    system = run.owned[0]
    refused = []

    def from_inside():
        for owner in (run, system, system.topo, system.sim):
            with pytest.raises(SimulationError):
                (owner.close if owner is system.sim else owner.dispose)()
            refused.append(owner)

    system.sim.schedule(0.0, from_inside)
    result = run.run(buflen=1024, nbuf=16)  # the refused teardown corrupted nothing
    assert len(refused) == 4 and result.completed
    events = system.sim.events_processed
    run.dispose()
    run.dispose()
    system.dispose()
    system.topo.dispose()
    sim = system.sim
    assert sim.events_processed == events and sim.pending_events == 0
    for use in (
        lambda: sim.run(until=sim.now + 1.0),
        sim.run_until_idle,
        lambda: sim.post(0.0, print),
        lambda: sim.post_at(sim.now, print),
        lambda: sim.schedule(0.0, print),
        lambda: sim.schedule_at(sim.now, print),
    ):
        with pytest.raises(SimulationError, match="closed"):
            use()
