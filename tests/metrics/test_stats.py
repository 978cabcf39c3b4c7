"""Tests for measurement utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics import ThroughputMeter, percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 3.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0, max_value=100),
    )
    def test_within_range(self, samples, p):
        value = percentile(samples, p)
        assert min(samples) <= value <= max(samples)


class TestThroughputMeter:
    def test_throughput(self):
        m = ThroughputMeter()
        m.start(0.0)
        m.record(1.0, 500)
        m.record(2.0, 500)
        m.finish(2.0)
        assert m.duration == pytest.approx(2.0)

    def test_auto_start_on_first_record(self):
        m = ThroughputMeter()
        m.record(5.0, 100)
        m.record(6.0, 100)
        assert m.started_at == 5.0
        assert m.duration == pytest.approx(1.0)

    def test_zero_duration(self):
        m = ThroughputMeter()
        m.start(1.0)
        m.finish(1.0)
        assert m.duration == 0.0
