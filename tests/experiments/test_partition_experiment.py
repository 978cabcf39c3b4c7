"""Shape tests for the D4 partition experiment and the heartbeat
detector's partition false-positive case (DESIGN.md §9)."""

from repro.core import DetectorParams, enable_heartbeats
from repro.experiments.partition import check_shape, run_partition
from repro.experiments.testbeds import build_ft_system
from repro.faults import FaultPlan


class TestPartitionExperiment:
    def test_symmetric_variant_shape(self):
        result = run_partition("symmetric")
        assert check_shape(result) == []
        assert result.final_epoch >= 1
        assert result.promotions_granted >= 1

    def test_oneway_variant_fences_stale_output(self):
        result = run_partition("oneway")
        assert check_shape(result) == []
        # With only the redirector->primary direction down, the
        # ex-primary keeps transmitting on its stale view: the fence
        # (not just membership) is what protects the client.
        assert result.segments_fenced > 0
        assert result.dual_primary_time == 0.0

    def test_determinism(self):
        r1 = run_partition("symmetric", seed=3)
        r2 = run_partition("symmetric", seed=3)
        assert r1.bytes_received == r2.bytes_received
        assert r1.segments_fenced == r2.segments_fenced
        assert r1.samples == r2.samples


class TestHeartbeatPartitionFalsePositive:
    """A partitioned (not crashed) primary is the heartbeat detector's
    classic false positive: silence is indistinguishable from death.
    The epoch arbitration must keep the false positive harmless —
    exactly one promotion granted, and the healed 'dead' primary is
    demoted instead of re-armed."""

    def test_no_double_promotion_idle_service(self):
        system = build_ft_system(
            seed=5,
            n_backups=1,
            # Mute the retransmission estimator so only heartbeats act.
            detector=DetectorParams(threshold=1_000_000),
        )
        detector, _senders = enable_heartbeats(
            system.redirector_daemon,
            system.nodes[:2],
            system.service_ip,
            system.port,
            period=0.5,
            tolerance=3,
        )
        plan = FaultPlan(system.sim)
        link = system.topo.find_link("redirector", "hs_0")
        plan.partition_at(link, system.sim.now + 1.0, duration=8.0)
        system.run_for(30.0)

        # The false positive fired (the primary was only partitioned)...
        assert detector.detections >= 1
        entry = system.redirector.entry_for(system.service_ip, system.port)
        assert entry.replicas == [system.servers[1].ip]
        assert entry.epoch >= 1
        # ...but arbitration granted exactly one promotion, and the
        # healed ex-primary announced itself, was caught, and demoted.
        assert system.redirector_daemon.promotions_granted == 1
        assert detector.zombie_heartbeats > 0
        assert system.redirector_daemon.demotes_sent >= 1
        live_primaries = [
            h
            for h in system.service.replicas
            if h.ft_port.is_primary
            and not h.ft_port.shut_down
            and not h.node.host_server.crashed
        ]
        assert len(live_primaries) == 1
        assert live_primaries[0].node is system.nodes[1]
