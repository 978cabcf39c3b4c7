"""Backend conformance matrix (DESIGN.md §15).

One shared battery — transfer integrity, crash fail-over, live-join,
split-brain fencing, gray-failure excision — runs against every
replication strategy with all invariant monitors armed.  A new backend
is added to ``repro.replication.STRATEGIES`` and is picked up here
automatically: ``BACKENDS`` comes from that table, not a hand-kept
list.

The scenarios reuse the fuzzer's spec/runner machinery
(:mod:`repro.invariants.fuzz`), so "monitors armed" means the same
atomicity / output-ordering / single-primary / stream-integrity /
progress-truthfulness / output-liveness monitors the fuzzer holds the
chain to.
"""

import pytest

from repro.apps.echo import echo_server_factory
from repro.core import DetectorParams
from repro.experiments.testbeds import build_ft_system
from repro.invariants.fuzz import ScenarioSpec, run_scenario
from repro.invariants.monitors import attach_invariants
from repro.recovery import RecoveryManager, SparePool
from repro.replication import available_strategies

BACKENDS = available_strategies()

ECHO_TOTAL = 40_000


def run_spec(backend, faults=(), gray=False, workload=None, **kw):
    spec = ScenarioSpec(
        seed=7,
        n_backups=kw.pop("n_backups", 2),
        workload=workload
        or {"kind": "echo", "total_bytes": ECHO_TOTAL, "chunk": 2048},
        duration=kw.pop("duration", 25.0),
        faults=list(faults),
        gray=gray,
        backend=backend,
        **kw,
    )
    return run_scenario(spec)


@pytest.mark.parametrize("backend", BACKENDS)
class TestConformance:
    def test_transfer_integrity(self, backend):
        """A faultless echo transfer completes, all monitors quiet."""
        result = run_spec(backend)
        assert result.violated_monitors == []
        assert result.client_received == ECHO_TOTAL

    def test_crash_failover(self, backend):
        """Primary crash mid-transfer: a backup takes over and finishes
        the stream; no monitor fires."""
        result = run_spec(
            backend, faults=[{"op": "crash", "target": "hs_0", "at": 2.3}]
        )
        assert result.violated_monitors == []
        assert result.client_received == ECHO_TOTAL

    def test_backup_crash_tolerated(self, backend):
        """A backup crash must not wedge the primary's gates."""
        result = run_spec(
            backend, faults=[{"op": "crash", "target": "hs_1", "at": 2.3}]
        )
        assert result.violated_monitors == []
        assert result.client_received == ECHO_TOTAL

    def test_split_brain_fencing(self, backend):
        """Asymmetric partition of the primary's uplink: the ex-primary
        can still transmit while deaf to the management plane — the
        epoch fence plus the backend's promotion handling must keep the
        client stream single-sourced and intact."""
        result = run_spec(
            backend,
            loss=0.02,
            faults=[
                {
                    "op": "partition_oneway",
                    "link": "hs_0",
                    "direction": "b_to_a",
                    "at": 3.0,
                    "duration": 8.0,
                }
            ],
        )
        assert result.violated_monitors == []
        assert result.client_received == ECHO_TOTAL

    def test_gray_failure_excision(self, backend):
        """A backup lying about its progress must be excised instead of
        stalling externalization past the liveness bound."""
        result = run_spec(
            backend,
            gray=True,
            workload={
                "kind": "paced_echo",
                "chunk": 1024,
                "every": 0.02,
                "until": 12.0,
            },
            faults=[
                {
                    "op": "lie_progress",
                    "target": "hs_1",
                    "at": 2.3,
                    "duration": 8.0,
                    "inflate": 1_000_000,
                }
            ],
        )
        # The paced gray workload drives a sink service (no echo), so
        # the verdict is the monitors': with excision working, the liar
        # is cut out before OutputLiveness's bound trips; with it broken
        # the same schedule fires (see tests/invariants/test_mutation).
        assert result.violated_monitors == []
        assert result.stats.get("deposits", 0) > 0

    def test_live_join_restores_degree(self, backend):
        """Crash the primary with a spare pooled: the recovery manager
        must draft the spare through the live-join protocol and restore
        target degree — monitors armed throughout."""
        system = build_ft_system(
            seed=0,
            n_backups=1,
            n_spares=1,
            detector=DetectorParams(threshold=3, cooldown=1.0),
            factory=echo_server_factory,
            port=5001,
            strategy=backend,
        )
        invset = attach_invariants(system)
        manager = RecoveryManager(
            system.service,
            system.redirector_daemon,
            SparePool(system.spare_nodes),
            target_degree=2,
        )
        conn = system.client_node.connect(system.service_ip, 5001)
        received = bytearray()
        conn.on_data = received.extend
        sent = bytearray()
        counter = [0]

        def tick():
            if counter[0] >= 200:
                return
            data = bytes([counter[0] % 256]) * 400
            conn.send(data)
            sent.extend(data)
            counter[0] += 1
            system.sim.schedule(0.05, tick)

        system.sim.schedule(2.5, tick)
        system.sim.schedule(4.0, system.servers[0].crash)
        system.run_until(60.0)
        entry = system.redirector_daemon.redirector.entry_for(
            system.service_ip, 5001
        )
        assert list(entry.replicas) == [
            system.nodes[1].ip,
            system.spare_nodes[0].ip,
        ]
        assert manager.joins_completed == 1
        assert bytes(received) == bytes(sent)
        assert invset.violated_monitors() == []
