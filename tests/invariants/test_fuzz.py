"""The fuzzer itself: deterministic generation, deterministic replay,
and the ddmin shrinker's contract."""

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

    def test_help_says_how_a_find_joins_the_corpus(self, capsys):
        from repro.invariants.fuzz import main

        with pytest.raises(SystemExit):
            main(["--help"])
        assert "--out tests/fuzz_corpus" in " ".join(capsys.readouterr().out.split())
