"""Deterministic reduction: canonical ordering no matter the arrival order."""

import pytest

from repro.runtime import DeterministicMerger, TaskOutcome


def _ok(key, value):
    return TaskOutcome(key=key, status="ok", value=value)


class TestDeterministicMerger:
    def test_emits_in_canonical_order_despite_arrival_order(self):
        emitted = []
        merger = DeterministicMerger(["a", "b", "c"], lambda o: emitted.append(o.key))
        merger.offer(_ok("c", 3))
        assert emitted == []
        merger.offer(_ok("a", 1))
        assert emitted == ["a"]
        merger.offer(_ok("b", 2))
        assert emitted == ["a", "b", "c"]

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
