"""The fuzzer itself: deterministic generation, deterministic replay,
and the ddmin shrinker's contract."""

import json
from dataclasses import replace

import pytest

from repro.invariants.fuzz import ScenarioSpec, generate_spec, run_scenario
from repro.invariants.shrink import _Budget, ddmin

pytestmark = pytest.mark.fuzz


class TestGenerator:
    def test_same_seed_same_spec(self):
        assert generate_spec(5) == generate_spec(5)
        assert generate_spec(5) != generate_spec(6)

    def test_json_roundtrip(self):
        spec = generate_spec(11)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_generated_schedules_are_valid(self):
        for seed in range(40):
            spec = generate_spec(seed)
            assert 0 <= spec.n_backups <= 3
            for op in spec.faults:
                at = op.get("at", op.get("start"))
                assert at is not None and at >= 2.0  # after registration
                assert op["op"] in {
                    "crash",
                    "crash_for",
                    "crash_cycle",
                    "partition",
                    "partition_oneway",
                    "loss_burst",
                    "recommission",
                }


class TestDeterministicReplay:
    SPEC = ScenarioSpec(
        seed=3,
        n_backups=1,
        workload={"kind": "echo", "total_bytes": 8192, "chunk": 2048},
        duration=6.0,
    )

    def test_same_spec_same_fingerprint(self):
        first = run_scenario(self.SPEC)
        second = run_scenario(self.SPEC)
        assert first.fingerprint == second.fingerprint
        assert first.client_received == second.client_received == 8192

    def test_fingerprint_ignores_seed_offset(self, monkeypatch):
        base = run_scenario(self.SPEC).fingerprint
        monkeypatch.setenv("REPRO_SEED_OFFSET", "1000")
        assert run_scenario(self.SPEC).fingerprint == base


class TestDdmin:
    def test_finds_minimal_subset(self):
        items = list(range(8))
        trace = []

        def oracle(candidate):
            trace.append(list(candidate))
            return {3, 5} <= set(candidate)

        result = ddmin(items, oracle, _Budget(100))
        assert sorted(result) == [3, 5]

    def test_empties_when_nothing_needed(self):
        assert ddmin([1, 2, 3, 4], lambda c: True, _Budget(100)) == []

    def test_budget_bounds_candidate_runs(self):
        calls = {"n": 0}

        def oracle(candidate):
            calls["n"] += 1
            return {3, 5} <= set(candidate)

        result = ddmin(list(range(64)), oracle, _Budget(3))
        assert calls["n"] <= 3
        assert {3, 5} <= set(result)  # still reproduces, just less minimal


class TestGrayScenarios:
    """Gray-failure mode: generation, validity, and clean replay."""

    GRAY_OPS = {"lie_progress", "slow_host", "asym_loss", "corrupt_ack", "reorder_ack"}

    def test_gray_specs_deterministic_and_roundtrip(self):
        spec = generate_spec(45, gray=True)
        assert spec == generate_spec(45, gray=True)
        assert spec.gray
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec and again.gray

    def test_gray_flag_does_not_perturb_classic_specs(self):
        """The classic (gray=False) RNG stream is untouched — legacy
        corpus entries stay byte-identical."""
        for seed in range(20):
            assert generate_spec(seed) == generate_spec(seed)

    def test_gray_schedules_contain_gray_ops_and_are_valid(self):
        seen_ops = set()
        for seed in range(50):
            spec = generate_spec(seed, gray=True)
            assert spec.gray
            assert spec.n_backups >= 1  # someone to lie on the chain
            assert spec.mesh is None
            gray_ops = [f for f in spec.faults if f["op"] in self.GRAY_OPS]
            assert gray_ops, f"seed {seed}: no gray op in the schedule"
            seen_ops.update(f["op"] for f in gray_ops)
            for op in gray_ops:
                assert op["at"] >= 2.0  # after registration
                assert op["duration"] > 0
        # The catalogue is actually exercised across the corpus.
        assert {"lie_progress", "slow_host", "asym_loss"} <= seen_ops

    def test_gray_scenarios_replay_clean_and_deterministic(self):
        """Unmutated code survives its own adversary catalogue: the
        defenses (validation, degradation, adaptive detection) hold on
        a sample of generated gray scenarios, byte-identically."""
        for seed in (0, 3, 7):
            spec = generate_spec(seed, gray=True)
            first = run_scenario(spec)
            assert first.violated_monitors == [], (
                f"seed {seed}: {first.violations[:2]}"
            )
            assert run_scenario(spec).fingerprint == first.fingerprint


class TestMeshScenarios:
    """Small-mesh fuzzing: generation, replay determinism, shrink."""

    def test_generator_emits_small_meshes(self):
        mesh_specs = [s for s in map(generate_spec, range(50)) if s.mesh]
        assert mesh_specs, "no mesh scenario in the first 50 seeds"
        for spec in mesh_specs:
            params = spec.mesh["params"]
            assert 2 <= params["spokes"] + 1 <= 3  # redirectors incl. hub
            assert 2 <= params["services"] <= 4
            for op in spec.faults:
                assert op["op"] in {"crash", "crash_for", "partition", "loss_burst"}

    def test_mesh_spec_json_roundtrip(self):
        spec = next(s for s in map(generate_spec, range(50)) if s.mesh)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec and again.mesh == spec.mesh

    def test_legacy_spec_json_defaults_to_no_mesh(self):
        data = ScenarioSpec(seed=1).to_json()
        del data["mesh"]  # a corpus file from before the mesh option
        assert ScenarioSpec.from_json(data).mesh is None

    def test_mesh_replay_deterministic_and_offset_free(self, monkeypatch):
        spec = next(s for s in map(generate_spec, range(50)) if s.mesh)
        first = run_scenario(spec)
        assert first.violated_monitors == []
        monkeypatch.setenv("REPRO_SEED_OFFSET", "1000")
        assert run_scenario(spec).fingerprint == first.fingerprint

    def test_mesh_shrink_reduces_workload_not_chain(self):
        from dataclasses import replace

        from repro.invariants.shrink import shrink_spec

        spec = next(s for s in map(generate_spec, range(50)) if s.mesh)
        spec = replace(spec, duration=8.0)
        # Oracle: "violates" whenever the mesh shape survives — shrink
        # must strip faults and halve the client workload, and must not
        # touch n_backups (meaningless for mesh specs).
        small = shrink_spec(spec, lambda c: c.mesh is not None, budget=30)
        assert small.mesh is not None
        assert small.faults == []
        assert small.mesh["workload"]["connections"] <= 2
        assert small.n_backups == spec.n_backups


class TestMeshTakesTheWholeVocabulary:
    """Mesh runs read every fault op off the one interpreter, gray ops
    included, with targets resolved on the mesh."""

    SPEC = ScenarioSpec(
        seed=7,
        workload={"kind": "mesh"},
        duration=20.0,
        faults=[
            {"op": "slow_host", "target": "srv_s0n0", "at": 2.6, "duration": 3.0},
            {
                "op": "asym_loss",
                "link": "srv_s0n1",
                "direction": "b_to_a",
                "at": 2.7,
                "duration": 2.0,
                "loss_rate": 0.5,
            },
        ],
        mesh={
            "kind": "hub_and_spoke",
            "params": {
                "spokes": 1,
                "servers_per_spoke": 2,
                "clients_per_spoke": 1,
                "services": 2,
                "backups": 1,
            },
            "workload": {
                "connections": 10,
                "requests_per_conn": 16,
                "request_size": 256,
                "think_time": 0.05,
                "start_window": 0.5,
            },
        },
    )

    def test_gray_ops_run_on_a_mesh_under_armed_monitors(self):
        first = run_scenario(self.SPEC)
        assert first.violated_monitors == [], first.violations[:2]
        assert run_scenario(self.SPEC).fingerprint == first.fingerprint
        unfaulted = run_scenario(replace(self.SPEC, faults=[]))
        assert unfaulted.fingerprint != first.fingerprint


class TestCliSavesFindsOutsideTheCorpus:
    """ROADMAP 1d: three tier-1 tests glob ``tests/fuzz_corpus/``, so a
    casual ``repro fuzz`` that finds something must not write there."""

    def test_forced_find_lands_in_the_working_directory(self, tmp_path, monkeypatch, capsys):
        from repro.invariants.fuzz import CORPUS_DIR, load_reproducer, main

        def corpus():
            return {p.name: p.read_bytes() for p in CORPUS_DIR.iterdir()}

        before = corpus()
        monkeypatch.chdir(tmp_path)
        argv = ["--runs", "1", "--seed", "0", "--mutate", "deposit_gate", "--shrink-budget", "10"]
        assert main(argv) == 0
        assert "1 violating" in capsys.readouterr().out
        assert corpus() == before
        saved = tmp_path / "fuzz-finds" / "deposit_gate-seed0.json"
        assert load_reproducer(saved)["found_with_mutation"] == "deposit_gate"
        # Adding to the corpus is the explicit form.
        assert main(argv + ["--out", str(tmp_path / "corpus")]) == 0
        assert (tmp_path / "corpus" / "deposit_gate-seed0.json").exists()

    def test_a_find_that_cannot_be_written_is_one_usage_line(self, tmp_path, monkeypatch, capsys):
        """ROADMAP 7: a full disk while saving the shrunk find exits 2
        with one line naming ``--out``, not a traceback."""
        import errno
        from pathlib import Path

        from repro.invariants.fuzz import main

        def full_disk(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device", str(self))

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Path, "write_text", full_disk)
        argv = ["--runs", "1", "--seed", "0", "--mutate", "deposit_gate", "--shrink-budget", "10"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err
        last = err.splitlines()[-1]
        assert "--out fuzz-finds" in last and "No space left on device" in last
        assert not any((tmp_path / "fuzz-finds").iterdir())

    def test_help_says_how_a_find_joins_the_corpus(self, capsys):
        from repro.invariants.fuzz import main

        with pytest.raises(SystemExit):
            main(["--help"])
        assert "--out tests/fuzz_corpus" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--jobs", "-1"],
        ["--task-timeout", "0"],
        ["--task-timeout", "-2.5"],
        ["--runs", "0"],
        ["--runs", "-3"],
        ["--shrink-budget", "0"],
        ["--shrink-budget", "-1"],
    ],
    ids=" ".join,
)
def test_cli_rejects_bad_pool_numbers_with_usage(flags, capsys):
    """ROADMAP 9a: exit 2 and a usage line, not a pool traceback, and
    never a "0 runs" pass when the run count is not positive."""
    from repro.invariants.fuzz import main

    with pytest.raises(SystemExit) as exc:
        main(["--runs", "1", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err


@pytest.mark.parametrize("sub", ["", "finds"], ids=["file", "under-file"])
def test_cli_rejects_out_that_is_not_a_directory(sub, tmp_path, capsys):
    """ROADMAP 9a: an --out that cannot hold a reproducer is a usage
    error before the first run, not a traceback after the shrink."""
    from repro.invariants.fuzz import main

    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    with pytest.raises(SystemExit) as exc:
        main(["--runs", "1", "--out", str(blocker / sub)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    assert str(blocker) in err.splitlines()[-1]
    assert blocker.read_text() == "keep"


_SPEC = ScenarioSpec(seed=3, duration=6.0).to_json()
_BURST = {"op": "loss_burst", "link": "hs_0", "at": 2.5, "duration": 1.0, "loss_rate": 0.5}


@pytest.mark.parametrize(
    "name, body, reason",
    [
        ("missing.json", None, "No such file"),
        ("not-json.json", "{not json", "JSONDecodeError"),
        ("no-spec.json", json.dumps({"clean_fingerprint": "0" * 64}), "'spec'"),
        (
            "unknown-op.json",
            json.dumps({"spec": dict(_SPEC, faults=[{"op": "meteor"}])}),
            "unknown fault op 'meteor'",
        ),
        (
            "refused.json",
            json.dumps({"spec": dict(_SPEC, faults=[_BURST, _BURST])}),
            "overlaps an existing window",
        ),
        (
            "nan-at.json",
            json.dumps({"spec": dict(_SPEC, faults=[dict(_BURST, at=float("nan"))])}),
            "must be >= 0, got nan",
        ),
        (
            "past-recommission.json",
            json.dumps({"spec": dict(_SPEC, faults=[
                {"op": "recommission", "target": "hs_0", "at": -1.0}
            ])}),
            "cannot schedule at -1.0",
        ),
        ("word-duration.json", json.dumps({"spec": dict(_SPEC, duration="ten")}), "duration='ten'"),
        ("nan-latency.json", json.dumps({"spec": dict(_SPEC, latency=float("nan"))}), "latency=nan"),
        (
            "zero-chunk.json",
            json.dumps({"spec": dict(_SPEC, workload=dict(_SPEC["workload"], chunk=0))}),
            "workload.chunk=0",
        ),
        (
            "negative-total.json",
            json.dumps({"spec": dict(_SPEC, workload=dict(_SPEC["workload"], total_bytes=-5))}),
            "workload.total_bytes=-5",
        ),
    ],
    ids=[
        "missing", "not-json", "no-spec", "unknown-op", "refused", "nan-at",
        "past-recommission", "word-duration", "nan-latency", "zero-chunk", "negative-total",
    ],
)
def test_replay_rejects_bad_input_with_usage(name, body, reason, tmp_path, capsys):
    """ROADMAP 9a: a file that cannot be replayed is a usage error that
    names the file and the reason — exit 2, no traceback."""
    from repro.invariants.fuzz import main

    path = tmp_path / name
    if body is not None:
        path.write_text(body)
    with pytest.raises(SystemExit) as exc:
        main(["--replay", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    assert name in err.splitlines()[-1] and reason in err.splitlines()[-1]


def test_replay_without_a_recorded_fingerprint_says_so(tmp_path, capsys):
    """Nothing is compared when the file records no fingerprint, and
    the verdict must not claim a match."""
    from repro.invariants.fuzz import main

    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"spec": _SPEC}))
    assert main(["--replay", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK: clean, no fingerprint recorded"
