"""Unit tests for the retransmission-threshold failure estimator."""

import pytest

from repro.core import DetectorParams, RetransmissionDetector
from repro.netsim import Simulator


def make(sim, threshold=4, window=10.0, cooldown=2.0):
    fired = []
    params = DetectorParams(threshold=threshold, window=window, cooldown=cooldown)
    detector = RetransmissionDetector(sim, params, lambda: fired.append(sim.now))
    return detector, fired


def test_fires_at_threshold():
    sim = Simulator()
    detector, fired = make(sim, threshold=3)
    for _ in range(2):
        detector.observe_retransmission()
    assert fired == []
    detector.observe_retransmission()
    assert len(fired) == 1


def test_below_threshold_never_fires():
    sim = Simulator()
    detector, fired = make(sim, threshold=5)
    for _ in range(4):
        detector.observe_retransmission()
    assert fired == []


def test_window_expires_old_observations():
    sim = Simulator()
    detector, fired = make(sim, threshold=3, window=1.0)
    detector.observe_retransmission()
    detector.observe_retransmission()
    sim.run(until=5.0)  # both observations age out
    detector.observe_retransmission()
    detector.observe_retransmission()
    assert fired == []


def test_cooldown_rate_limits_reports():
    sim = Simulator()
    detector, fired = make(sim, threshold=2, cooldown=10.0)
    for _ in range(2):
        detector.observe_retransmission()
    assert len(fired) == 1
    for _ in range(6):
        detector.observe_retransmission()
    assert len(fired) == 1  # still within cooldown
    sim.run(until=11.0)
    for _ in range(2):
        detector.observe_retransmission()
    assert len(fired) == 2


def test_counter_resets_after_fire():
    sim = Simulator()
    detector, fired = make(sim, threshold=2, cooldown=0.0)
    for _ in range(2):
        detector.observe_retransmission()
    detector.observe_retransmission()
    assert len(fired) == 1  # one more observation is below threshold again


def test_observation_count():
    sim = Simulator()
    detector, fired = make(sim, threshold=100)
    for _ in range(7):
        detector.observe_retransmission()
    assert detector.observations == 7


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DetectorParams(threshold=0)
    with pytest.raises(ValueError):
        DetectorParams(window=-1.0)


def test_detector_threshold_above_fast_retransmit():
    """The default threshold must stay above TCP's triple-dupack
    trigger so the estimator does not interfere with congestion
    control (paper §4.3)."""
    assert DetectorParams().threshold > 3
