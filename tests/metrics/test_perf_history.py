"""Benchmark trajectory (BENCH_HISTORY.json) and the profiling
subsystem (DESIGN.md §16.2, §16.4)."""

from pathlib import Path

import pytest

from repro.metrics.perf import (
    EnginePerfResult,
    baseline_records,
    check_regression,
    load_baseline,
)
from repro.metrics.profiling import (
    capture_histogram,
    event_class,
    ordered_histogram,
    subsystem_for,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _result(events_per_sec=100_000.0, **overrides) -> EnginePerfResult:
    base = dict(
        nbuf=1024,
        buflen=1024,
        n_backups=2,
        seed=0,
        completed=True,
        bytes_sent=1048576,
        events=30894,
        sim_seconds=2.170283,
        peak_queue_len=123,
        throughput_kB_per_s=483.152,
        wall_seconds=0.3,
        events_per_sec=events_per_sec,
        wall_per_sim_second=0.14,
    )
    base.update(overrides)
    return EnginePerfResult(**base)


def _entry(events_per_sec, **overrides) -> dict:
    entry = _result(events_per_sec).to_dict()
    entry.update(overrides)
    return entry


class TestHistorySchema:
    def test_old_style_baseline_uses_after_for_both(self):
        baseline = {"after": _entry(111_438.0)}
        det, speed = baseline_records(baseline)
        assert det is speed is baseline["after"]

    def test_history_gates_speed_against_best_entry(self):
        history = {
            "engine": {
                "entries": [
                    _entry(54_008.2, pr=0),
                    _entry(120_000.0, pr=3),  # the best committed
                    _entry(110_000.0, pr=10),  # the latest
                ]
            }
        }
        det, speed = baseline_records(history)
        assert det["pr"] == 10
        assert speed["pr"] == 3

        # A fresh run may not regress >30% below the BEST entry even if
        # it beats the latest one.
        problems = check_regression(_result(events_per_sec=83_000.0), history)
        assert any("regressed" in p for p in problems)
        assert check_regression(_result(events_per_sec=90_000.0), history) == []

    def test_deterministic_fields_gate_against_latest_entry(self):
        history = {
            "engine": {
                "entries": [
                    _entry(100_000.0, pr=3, events=11111),  # older behaviour
                    _entry(100_000.0, pr=10),
                ]
            }
        }
        assert check_regression(_result(), history) == []
        problems = check_regression(_result(events=11111), history)
        assert any("events" in p for p in problems)

    def test_committed_history_matches_current_engine_schema(self):
        path = REPO_ROOT / "BENCH_HISTORY.json"
        if not path.exists():
            pytest.skip("BENCH_HISTORY.json not committed yet")
        history = load_baseline(path)
        det, speed = baseline_records(history)
        assert check_regression(
            _result(events_per_sec=speed["events_per_sec"]), history
        ) == []


class TestProfiling:
    def test_subsystem_mapping(self):
        assert subsystem_for("repro.netsim.simulator") == "scheduler"
        assert subsystem_for("repro.netsim.link") == "link"
        assert subsystem_for("repro.netsim.nic") == "link"
        assert subsystem_for("repro.netsim.host") == "netsim"
        assert subsystem_for("repro.tcp.tcb") == "tcp"
        assert subsystem_for("repro.core.ft_tcp") == "ft_tcp"
        assert subsystem_for("repro.hydranet.redirector") == "redirector"
        assert subsystem_for("json") == "other"

    def test_event_class_labels(self):
        def cb():
            pass

        assert event_class(cb).endswith("test_event_class_labels.<locals>.cb")

    def test_histogram_is_scheduler_independent(self):
        """Counted at post time, so the histogram is a function of what
        was scheduled — not of how (or whether) the queue dispatched it."""
        from repro.netsim.simulator import Simulator, Timer

        with capture_histogram() as counts:
            sim = Simulator()
            timer = Timer(sim, lambda: None)
            timer.start(0.5)
            for i in range(10):
                sim.schedule(0.1 * i, lambda: None)
                sim.post(0.05 * i, int)
            handle = sim.schedule(3.0, lambda: None)
            handle.cancel()
            before_run = ordered_histogram(counts)
            sim.run_until_idle()
        histogram = ordered_histogram(counts)
        assert histogram == before_run
        assert sum(histogram.values()) == 22  # 10+10 + timer + cancelled one
        assert histogram["builtins.int"] == 10
        assert list(histogram.values()) == sorted(histogram.values(), reverse=True)
        # The class is restored: posts outside the block are not counted.
        Simulator().post(0.0, int)
        assert sum(counts.values()) == 22

    def test_profile_engine_writes_artifacts(self, tmp_path):
        from repro.metrics.profiling import profile_engine

        report = profile_engine(out_dir=tmp_path, nbuf=16, buflen=256)
        assert report.events > 0
        assert "scheduler" in report.subsystems
        assert report.event_histogram
        assert (tmp_path / "profile.pstats").exists()
        assert (tmp_path / "profile.txt").exists()
        assert (tmp_path / "event_histogram.json").exists()
