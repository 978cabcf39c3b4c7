"""Tests for 32-bit sequence arithmetic."""

from hypothesis import given, strategies as st

from repro.tcp import seq_add, seq_diff
from repro.tcp.seqnum import SEQ_MOD

seqs = st.integers(min_value=0, max_value=SEQ_MOD - 1)
small = st.integers(min_value=-(2**30), max_value=2**30)


def test_add_wraps():
    assert seq_add(SEQ_MOD - 1, 1) == 0
    assert seq_add(0, -1) == SEQ_MOD - 1


def test_diff_simple():
    assert seq_diff(10, 4) == 6
    assert seq_diff(4, 10) == -6


def test_diff_across_wrap():
    assert seq_diff(5, SEQ_MOD - 5) == 10
    assert seq_diff(SEQ_MOD - 5, 5) == -10


def test_comparisons_across_wrap():
    old = SEQ_MOD - 100
    new = 50  # wrapped past zero
    assert seq_diff(old, new) < 0
    assert seq_diff(new, old) > 0


def test_between_across_wrap():
    low = SEQ_MOD - 10
    assert 0 <= seq_diff(5, low) <= seq_diff(20, low)
    assert not seq_diff(30, low) <= seq_diff(20, low)


@given(seqs, small)
def test_add_then_diff_round_trips(base, delta):
    assert seq_diff(seq_add(base, delta), base) == delta


@given(seqs, small)
def test_lt_gt_antisymmetric(base, delta):
    a = seq_add(base, delta)
    assert seq_diff(base, a) == -seq_diff(a, base)


@given(seqs)
def test_reflexive(a):
    assert seq_diff(a, a) == 0
