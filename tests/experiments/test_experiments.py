"""Smoke + shape tests for the experiment harness (reduced sweeps)."""

from functools import partial

import pytest

from repro.experiments import (
    build_clean,
    build_ft_system,
    build_no_redirection,
    build_primary_backup,
    build_primary_only,
)
from repro.experiments.figure4 import PAPER_REFERENCE, check_shape, run_figure4


class TestTestbeds:
    @pytest.mark.parametrize(
        "builder",
        [
            build_clean,
            build_no_redirection,
            build_primary_only,
            build_primary_backup,
            # The deposit gates compose transitively down a long chain.
            pytest.param(partial(build_primary_backup, n_backups=4), id="four_backups"),
        ],
    )
    def test_each_configuration_completes(self, builder):
        run = builder(seed=0)
        result = run.run(buflen=256, nbuf=64)
        assert result.completed
        assert result.throughput_kB_per_sec > 0

    def test_ft_system_has_registered_service(self):
        system = build_ft_system(n_backups=2)
        entry = system.redirector.entry_for(system.service_ip, system.port)
        assert entry is not None
        assert len(entry.replicas) == 3
        assert entry.primary == system.servers[0].ip

    def test_seed_offset_applies_unless_opted_out(self, monkeypatch):
        from repro.experiments import testbeds

        seeds = []
        real = testbeds.Simulator
        monkeypatch.setattr(
            testbeds, "Simulator", lambda seed: seeds.append(seed) or real(seed=seed)
        )
        monkeypatch.setenv("REPRO_SEED_OFFSET", "100")
        for env_offset in (True, False):
            with build_ft_system(seed=5, n_backups=0, env_offset=env_offset):
                pass
        assert seeds == [105, 5]

    def test_determinism_across_builds(self):
        r1 = build_primary_backup(seed=7).run(buflen=128, nbuf=64)
        r2 = build_primary_backup(seed=7).run(buflen=128, nbuf=64)
        assert r1.throughput_kB_per_sec == r2.throughput_kB_per_sec
        assert r1.duration == r2.duration


class TestFigure4:
    def test_reduced_sweep_shape(self):
        results = run_figure4(sizes=[64, 1024], nbuf=128)
        assert check_shape(results) == []

    def test_throughput_rises_with_size(self):
        results = run_figure4(sizes=[16, 256], nbuf=128, configs=["clean"])
        series = results["clean"]
        assert series[1] > series[0] * 2

    def test_backup_config_pays_at_small_sizes(self):
        results = run_figure4(
            sizes=[64], nbuf=128, configs=["clean", "primary_backup"]
        )
        assert results["primary_backup"][0] < results["clean"][0] * 0.9

    def test_reference_data_is_complete(self):
        for config, series in PAPER_REFERENCE.items():
            assert len(series) == 7, config

    def test_incomplete_run_raises(self):
        # Tiny timeout: guaranteed incomplete.
        from repro.experiments import FIGURE4_BUILDERS

        run = FIGURE4_BUILDERS["clean"](seed=0)
        result = run.run(buflen=1024, nbuf=4096, timeout=0.001)
        assert not result.completed


class TestFailoverExperiment:
    def test_crash_failover_outcome(self):
        from repro.experiments.failover import run_crash_failover

        outcome = run_crash_failover(threshold=3, horizon=90.0)
        assert outcome.detected
        assert outcome.transfer_complete
        assert outcome.client_events == []
        assert 0 < outcome.failover_latency < 30.0

    def test_latency_is_measured_from_the_crash(self):
        # The promotion watch polls from the crash instant: a 2 s late
        # first poll used to floor every latency at 2.0 s.
        from repro.experiments.failover import run_crash_failover

        assert run_crash_failover(1).failover_latency < 2.0

    def test_congestion_burst_generates_reports(self):
        from repro.experiments.failover import run_congestion_false_positive

        outcome = run_congestion_false_positive(threshold=3, horizon=30.0)
        # The burst must at least trip the detector; whether the probe
        # then shuts the congested path's replica down is the designed
        # fail-stop policy (paper §1), so no assertion on shutdowns.
        assert outcome.failure_reports >= 1


class TestReceivePathExperiment:
    def test_staged_beats_no_staging(self):
        from repro.experiments.receive_path import run_variant

        staged = run_variant("staged", nbuf=32)
        nostage = run_variant("no-staging", nbuf=32)
        assert staged.completed
        assert staged.client_timeouts == 0
        assert nostage.client_timeouts > 0
        assert nostage.throughput_kB_per_sec < staged.throughput_kB_per_sec


class TestFragmentationExperiment:
    def test_mtu_boundary(self):
        from repro.experiments.fragmentation import run_mtu_point

        outcomes = [run_mtu_point(size, nbuf=64) for size in (1472, 1500)]
        assert not outcomes[0].fragments_created
        assert outcomes[1].fragments_created
        assert outcomes[1].throughput_kB_per_sec < outcomes[0].throughput_kB_per_sec

    def test_tunnel_fragmentation(self):
        from repro.experiments.fragmentation import run_tunnel_fragmentation

        outcomes = run_tunnel_fragmentation(nbuf=64)
        assert outcomes[0].fragments_created
        assert not outcomes[1].fragments_created


class TestAckLossExperiment:
    def test_echo_degrades_with_loss(self):
        from repro.experiments.ack_channel_loss import run_echo

        mean0, p95_0, stalls0, _rtx0 = run_echo(0.0, n_requests=50)
        mean1, p95_1, stalls1, _rtx1 = run_echo(0.3, n_requests=50)
        assert mean1 > 3 * mean0
        assert p95_1 > p95_0
        assert stalls1 > stalls0


class TestScalingBenefit:
    def test_replica_diffuses_load(self):
        from repro.experiments.scaling_benefit import check_shape, run_scaling

        baseline = run_scaling(with_replica=False, requests_per_client=3)
        scaled = run_scaling(with_replica=True, requests_per_client=3)
        assert check_shape(baseline, scaled) == []
        assert scaled.origin_packets == 0  # fully offloaded
        assert scaled.mean_latency_ms < baseline.mean_latency_ms / 2
