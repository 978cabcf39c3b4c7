"""Deterministic reduction: canonical ordering no matter the arrival order."""

import pytest

from repro.runtime import (
    DeterministicMerger,
    TaskOutcome,
    concat_stdout,
    ordered_outcomes,
)


def _ok(key, value, stdout=""):
    return TaskOutcome(key=key, status="ok", value=value, stdout=stdout)


class TestDeterministicMerger:
    def test_emits_in_canonical_order_despite_arrival_order(self):
        emitted = []
        merger = DeterministicMerger(["a", "b", "c"], lambda o: emitted.append(o.key))
        merger.offer(_ok("c", 3))
        assert emitted == []
        merger.offer(_ok("a", 1))
        assert emitted == ["a"]
        assert merger.missing() == ["b"]
        merger.offer(_ok("b", 2))
        assert emitted == ["a", "b", "c"]
        assert merger.done

    def test_rejects_unknown_and_duplicate_keys(self):
        merger = DeterministicMerger(["a"], lambda o: None)
        with pytest.raises(KeyError):
            merger.offer(_ok("zzz", 0))
        merger.offer(_ok("a", 1))
        with pytest.raises(ValueError):
            merger.offer(_ok("a", 1))

    def test_duplicate_canonical_keys_rejected(self):
        with pytest.raises(ValueError):
            DeterministicMerger(["a", "a"], lambda o: None)


class TestOrderedReduction:
    OUTCOMES = {
        "b": _ok("b", 2, stdout="B\n"),
        "a": _ok("a", 1, stdout="A\n"),
    }

    def test_ordered_outcomes(self):
        assert [o.key for o in ordered_outcomes(self.OUTCOMES, ["a", "b"])] == [
            "a",
            "b",
        ]

    def test_missing_key_raises(self):
        with pytest.raises(KeyError, match="missing"):
            ordered_outcomes(self.OUTCOMES, ["a", "b", "lost"])

    def test_concat_stdout_in_canonical_order(self):
        assert concat_stdout(self.OUTCOMES, ["a", "b"]) == "A\nB\n"
        assert concat_stdout(self.OUTCOMES, ["b", "a"]) == "B\nA\n"
