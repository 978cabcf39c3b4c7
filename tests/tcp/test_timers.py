"""Tests for RTO estimation."""

import pytest
from hypothesis import given, strategies as st

from repro.tcp import RtoEstimator, TcpOptions


def make(**kw):
    return RtoEstimator(TcpOptions(**kw))


def test_initial_rto():
    est = make(initial_rto=3.0)
    assert est.rto == 3.0
    assert est.srtt is None


def test_first_sample_initializes():
    est = make(min_rto=0.0)
    est.on_measurement(0.1)
    assert est.srtt == pytest.approx(0.1)
    assert est.rttvar == pytest.approx(0.05)
    assert est.rto == pytest.approx(0.1 + 4 * 0.05)


def test_smoothing_converges():
    est = make(min_rto=0.0)
    for _ in range(200):
        est.on_measurement(0.08)
    assert est.srtt == pytest.approx(0.08, rel=1e-3)
    # With constant RTT, variance decays and RTO approaches srtt + floor.
    assert est.rto < 0.12


def test_min_rto_clamp():
    est = make(min_rto=0.2)
    for _ in range(50):
        est.on_measurement(0.001)
    assert est.rto == 0.2


def test_max_rto_clamp():
    est = make(max_rto=10.0)
    est.on_measurement(1.0)
    for _ in range(20):
        est.on_timeout()
    assert est.rto == 10.0


def test_backoff_doubles():
    est = make(initial_rto=1.0, min_rto=0.1, max_rto=100.0)
    base = est.rto
    est.on_timeout()
    assert est.rto == pytest.approx(2 * base)
    est.on_timeout()
    assert est.rto == pytest.approx(4 * base)


def test_measurement_resets_backoff():
    est = make(initial_rto=1.0, max_rto=100.0)
    est.on_timeout()
    est.on_timeout()
    est.on_measurement(0.5)
    assert est.backoff_count == 0


def test_variance_tracks_jitter():
    stable = make(min_rto=0.0)
    jittery = make(min_rto=0.0)
    for i in range(100):
        stable.on_measurement(0.1)
        jittery.on_measurement(0.05 if i % 2 else 0.15)
    assert jittery.rto > stable.rto


def test_negative_sample_rejected():
    est = make()
    with pytest.raises(ValueError):
        est.on_measurement(-0.1)


def test_sample_count():
    est = make()
    est.on_measurement(0.1)
    est.on_measurement(0.1)
    assert est.samples == 2


_OPS = st.one_of(
    st.tuples(st.just("sample"), st.floats(min_value=0.0, max_value=5.0)),
    st.tuples(st.just("timeout"), st.none()),
    st.tuples(st.just("reset"), st.none()),
)


@given(
    ops=st.lists(_OPS, max_size=40),
    min_rto=st.sampled_from([0.0, 0.2, 1.0]),
    max_rto=st.sampled_from([2.0, 64.0]),
)
def test_stored_rto_equals_the_formula_after_every_step(ops, min_rto, max_rto):
    """``rto`` is stored, not recomputed per read: after any mix of
    samples, timeouts and backoff resets it must equal RFC 6298's
    value — base × 2^backoff, clamped — worked out from scratch."""
    est = make(initial_rto=1.5, min_rto=min_rto, max_rto=max_rto)

    def formula():
        base = 1.5 if est.srtt is None else est.srtt + max(4 * est.rttvar, 0.010)
        return min(max(base * 2**est.backoff_count, min_rto), max_rto)

    assert est.rto == formula()
    backoff = 0
    for op, rtt in ops:
        if op == "sample":
            est.on_measurement(rtt)
            backoff = 0
        elif op == "timeout":
            est.on_timeout()
            backoff += 1
        else:
            est.reset_backoff()
            backoff = 0
        assert est.backoff_count == backoff
        assert est.rto == formula()
        assert min_rto <= est.rto <= max_rto
