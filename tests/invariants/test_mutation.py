"""Mutation checks: each deliberately broken protocol gate must be
caught by the monitors within the first 50 seeded scenarios, and the
shrunk reproducer must replay deterministically."""

import pytest

from repro.invariants.fuzz import generate_spec, run_scenario, run_with_mutation
from repro.invariants.shrink import shrink_spec
from repro.replication import available_strategies

pytestmark = [pytest.mark.fuzz, pytest.mark.slow]

MAX_RUNS = 50

#: Backends beyond the chain that every gate mutation must also be
#: caught on (the delegation points the mutations patch are shared, so
#: a backend that stopped consulting them would silently lose coverage).
EXTRA_BACKENDS = tuple(b for b in available_strategies() if b != "chain")


def _first_violating(mutation, monitor, gray=False, backend="chain"):
    for i in range(MAX_RUNS):
        spec = generate_spec(i, gray=gray, backend=backend)
        result = run_with_mutation(spec, mutation)
        if monitor in result.violated_monitors:
            return spec, result
    pytest.fail(
        f"mutation {mutation!r} not detected as {monitor!r} "
        f"within {MAX_RUNS} seeded scenarios (backend {backend!r})"
    )


def test_disabled_deposit_gate_breaks_atomicity():
    spec, _ = _first_violating("deposit_gate", "atomicity")
    assert spec.seed < 5  # caught essentially immediately

    # Shrink against the same mutation, then check determinism.
    def reproduces(candidate):
        return "atomicity" in run_with_mutation(candidate, "deposit_gate").violated_monitors

    small = shrink_spec(spec, reproduces, budget=60)
    assert len(small.faults) <= len(spec.faults)
    first = run_with_mutation(small, "deposit_gate")
    second = run_with_mutation(small, "deposit_gate")
    assert "atomicity" in first.violated_monitors
    assert first.fingerprint == second.fingerprint
    # The minimal reproducer is mutation-specific: unmutated code is clean.
    assert run_scenario(small).violations == []


def test_disabled_output_gate_breaks_output_ordering():
    spec, _ = _first_violating("output_gate", "output-ordering")
    assert run_scenario(spec).violations == []


def test_disabled_epoch_fence_breaks_single_primary():
    spec, result = _first_violating("fence", "single-primary")
    # The monitor saw concrete stale segments past the fence, not just a
    # bookkeeping anomaly.
    assert any("fence" in v.detail or "primaries" in v.detail for v in result.violations)
    assert run_scenario(spec).violations == []


def test_disabled_progress_check_breaks_truthfulness():
    """ISSUE 7 acceptance gate: with watermark plausibility compiled
    out, a gray scenario's lying replica must be caught by the
    ProgressTruthfulness monitor within the first 50 seeds — and the
    shrunk reproducer must replay deterministically."""
    spec, _ = _first_violating(
        "progress_check", "progress-truthfulness", gray=True
    )

    def reproduces(candidate):
        return (
            "progress-truthfulness"
            in run_with_mutation(candidate, "progress_check").violated_monitors
        )

    small = shrink_spec(spec, reproduces, budget=60)
    first = run_with_mutation(small, "progress_check")
    second = run_with_mutation(small, "progress_check")
    assert "progress-truthfulness" in first.violated_monitors
    assert first.fingerprint == second.fingerprint
    assert run_scenario(small).violations == []


def test_disabled_ack_checksum_breaks_truthfulness():
    """With checksum validation off, corrupted-in-flight watermarks
    reach the progress logic and read as impossible claims."""
    spec, _ = _first_violating("ack_checksum", "progress-truthfulness", gray=True)
    assert run_scenario(spec).violations == []


def test_disabled_excision_breaks_output_liveness():
    """With both gray excision pathways (degradation reports and lie
    evidence) compiled out, a wedged-but-talking successor stalls
    primary output past the liveness bound."""
    spec, _ = _first_violating("excision", "output-liveness", gray=True)
    assert run_scenario(spec).violations == []


@pytest.mark.parametrize("backend", EXTRA_BACKENDS)
def test_disabled_deposit_gate_caught_per_backend(backend):
    """Every backend's deposit gate flows through the same patched
    delegation point; disabling it must break atomicity on that
    backend's own scenarios too."""
    spec, _ = _first_violating("deposit_gate", "atomicity", backend=backend)
    assert spec.seed < 5
    assert run_scenario(spec).violations == []


@pytest.mark.parametrize("backend", EXTRA_BACKENDS)
def test_disabled_output_gate_caught_per_backend(backend):
    spec, _ = _first_violating("output_gate", "output-ordering", backend=backend)
    assert run_scenario(spec).violations == []


@pytest.mark.parametrize("backend", EXTRA_BACKENDS)
def test_disabled_progress_check_caught_per_backend(backend):
    """Star backends validate per-member claims against the same
    ``members.PROGRESS_SLACK`` bound; a lying member must still be
    caught once the bound is lifted."""
    spec, _ = _first_violating(
        "progress_check", "progress-truthfulness", gray=True, backend=backend
    )
    assert run_scenario(spec).violations == []
