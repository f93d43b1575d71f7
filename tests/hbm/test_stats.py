"""Tests for RunStats derived metrics."""

import numpy as np
import pytest

from repro.hbm.stats import RunStats


def make_stats(**overrides) -> RunStats:
    defaults = dict(
        requests=100,
        bytes_moved=6400,
        makespan_ns=100.0,
        row_hits=75,
        row_misses=25,
        num_channels=4,
        per_channel_requests=np.array([25, 25, 25, 25]),
        per_channel_busy_ns=np.array([100.0, 100.0, 100.0, 100.0]),
    )
    defaults.update(overrides)
    return RunStats(**defaults)


class TestDerivedMetrics:
    def test_throughput(self):
        assert make_stats().throughput_gbps == pytest.approx(64.0)

    def test_throughput_zero_makespan(self):
        assert make_stats(makespan_ns=0.0).throughput_gbps == 0.0

    def test_row_hit_rate(self):
        assert make_stats().row_hit_rate == pytest.approx(0.75)

    def test_row_hit_rate_empty(self):
        assert make_stats(row_hits=0, row_misses=0).row_hit_rate == 0.0

    def test_channels_touched(self):
        stats = make_stats(per_channel_requests=np.array([10, 0, 5, 0]))
        assert stats.channels_touched == 2

    def test_clp_utilization_full(self):
        assert make_stats().clp_utilization == pytest.approx(1.0)

    def test_clp_utilization_single_channel(self):
        stats = make_stats(
            per_channel_requests=np.array([100, 0, 0, 0]),
            per_channel_busy_ns=np.array([100.0, 0, 0, 0]),
        )
        assert stats.clp_utilization == pytest.approx(0.25)

    def test_request_balance_even(self):
        assert make_stats().request_balance == pytest.approx(1.0)

    def test_request_balance_skewed(self):
        stats = make_stats(per_channel_requests=np.array([100, 0, 0, 0]))
        assert stats.request_balance == 0.0

    def test_summary_is_readable(self):
        text = make_stats().summary()
        assert "GB/s" in text and "CLP" in text
