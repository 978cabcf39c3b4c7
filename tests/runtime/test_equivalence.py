"""Serial/parallel equivalence: a parallel run is the same run, faster.

The contracts the parallel layer must never break: experiment report
text, fuzz output and corpus files, and replay fingerprints are
byte-identical at every ``--jobs`` level; and a scenario computed in a
pool worker is byte-identical to the same scenario computed in-process
(no inherited parent-process state can matter).
"""

import io
import json
import multiprocessing
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.experiments import runner
from repro.invariants.fuzz import (
    CORPUS_DIR,
    generate_spec,
    load_reproducer,
    run_scenario,
    scenario_task,
    spec_task,
)
from repro.invariants.fuzz import main as fuzz_main
from repro.runtime import ScenarioPool, Task

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _run_main(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue()


@needs_fork
class TestRunnerEquivalence:
    def test_sharded_experiment_report_byte_identical(self):
        serial_status, serial_out = _run_main(
            runner.main, ["--fast", "--only", "A1", "--jobs", "1"]
        )
        parallel_status, parallel_out = _run_main(
            runner.main, ["--fast", "--only", "A1", "--jobs", "4"]
        )
        assert serial_status == parallel_status == 0
        assert serial_out == parallel_out
        assert "A1 backups sweep: OK" in serial_out

    def test_unsharded_experiment_report_byte_identical(self):
        """A2 once ran as one whole-module task; its points now fan out
        like every other experiment's."""
        serial_status, serial_out = _run_main(
            runner.main, ["--fast", "--only", "A2", "--jobs", "1"]
        )
        parallel_status, parallel_out = _run_main(
            runner.main, ["--fast", "--only", "A2", "--jobs", "4"]
        )
        assert serial_status == parallel_status == 0
        assert serial_out == parallel_out
        assert "Shape check: OK" in serial_out

    def test_only_without_match_exits_2(self):
        status, out = _run_main(runner.main, ["--only", "no-such-experiment"])
        assert status == 2
        assert "no experiment title matches" in out

    def test_report_json_written(self, tmp_path):
        report_path = tmp_path / "report.json"
        status, _out = _run_main(
            runner.main,
            ["--fast", "--only", "A5", "--report", str(report_path)],
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["jobs"] == 1
        [row] = report["experiments"]
        assert row["title"] == "A5 receive-path ablation"
        assert row["status"] == "ok"
        assert row["wall_seconds"] > 0
        assert row["tasks"] == 3
        assert [p["key"] for p in row["points"]] == ["staged", "conservative", "no-staging"]
        staged = row["points"][0]
        assert staged["kwargs"] == {"variant": "staged", "nbuf": 64}
        assert staged["value"]["completed"] is True

    def test_cache_rerun_is_hit_and_byte_identical(self, tmp_path):
        argv = [
            "--fast", "--only", "A5", "--cache", "--cache-dir", str(tmp_path),
        ]
        report1, report2 = tmp_path / "r1.json", tmp_path / "r2.json"
        status1, out1 = _run_main(runner.main, argv + ["--report", str(report1)])
        status2, out2 = _run_main(runner.main, argv + ["--report", str(report2)])
        assert status1 == status2 == 0
        assert out1 == out2
        cold, warm = json.loads(report1.read_text()), json.loads(report2.read_text())
        assert cold["experiments"][0]["cached"] == 0
        assert warm["experiments"][0]["cached"] == warm["experiments"][0]["tasks"]


@needs_fork
class TestFuzzEquivalence:
    def test_fuzz_batch_byte_identical_across_jobs(self):
        serial_status, serial_out = _run_main(
            fuzz_main, ["--runs", "6", "--seed", "0", "--jobs", "1"]
        )
        parallel_status, parallel_out = _run_main(
            fuzz_main, ["--runs", "6", "--seed", "0", "--jobs", "4"]
        )
        assert serial_status == parallel_status == 0
        assert serial_out == parallel_out
        assert serial_out.count("\nrun ") + serial_out.startswith("run ") == 6

    def test_forked_and_inprocess_runs_share_fingerprints(self):
        """Satellite regression: a worker derives the scenario purely
        from its integer seed, so a forked run of the same seed is
        byte-identical to an in-process run — no parent RNG state, no
        shared simulator, nothing inherited matters."""
        seeds = [0, 1, 2, 3]
        inproc = {s: run_scenario(generate_spec(s)).fingerprint for s in seeds}
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(
                [
                    Task(
                        key=f"seed{s}",
                        fn=scenario_task,
                        kwargs={"scenario_seed": s, "mutation": None},
                    )
                    for s in seeds
                ]
            )
        for s in seeds:
            outcome = outcomes[f"seed{s}"]
            assert outcome.ok, outcome.error
            assert outcome.value["fingerprint"] == inproc[s], f"seed {s}"

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawned_worker_matches_too(self):
        """Even a cold interpreter (no inherited import state at all)
        reproduces the same scenario fingerprint from the bare seed."""
        seed = 1
        expected = run_scenario(generate_spec(seed)).fingerprint
        # jobs=1 would run inline; jobs=2 forces a real spawned worker.
        with ScenarioPool(jobs=2, start_method="spawn") as pool:
            outcome = pool.run_one(
                Task(
                    key="spawned",
                    fn=scenario_task,
                    kwargs={"scenario_seed": seed, "mutation": None},
                )
            )
        assert outcome.ok, outcome.error
        assert outcome.value["fingerprint"] == expected


@needs_fork
@pytest.mark.fuzz
class TestCorpusReplayEquivalence:
    def test_pooled_corpus_replay_matches_committed_fingerprints(self):
        corpus = sorted(CORPUS_DIR.glob("*.json"))
        assert corpus, f"no corpus files under {CORPUS_DIR}"
        entries = {path.stem: load_reproducer(path) for path in corpus}
        with ScenarioPool(jobs=4, start_method="fork") as pool:
            outcomes = pool.run(
                [
                    Task(
                        key=stem,
                        fn=spec_task,
                        kwargs={
                            "spec_data": entry["spec"].to_json(),
                            "mutation": None,
                        },
                    )
                    for stem, entry in entries.items()
                ]
            )
        for stem, entry in entries.items():
            outcome = outcomes[stem]
            assert outcome.ok, outcome.error
            assert outcome.value["violated_monitors"] == []
            assert outcome.value["fingerprint"] == entry["clean_fingerprint"], stem
