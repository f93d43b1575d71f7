"""Tests for RunStats derived metrics and the BackendHealth record."""

import numpy as np
import pytest

from repro.hbm.stats import BackendHealth, RunStats
from repro.system.machine import MachineResult


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


class TestBackendHealth:
    #: A guarded, demoted vector run's health as reports and stage-cache
    #: entries stored it before the shard counters were dropped.
    LEGACY = {
        "backend": "vector",
        "workers": 2,
        "shards": 2,
        "shard_retries": 1,
        "shard_timeouts": 0,
        "stats_rejected": 0,
        "serial_shards": 0,
        "pool_degraded": False,
        "demoted_to": "event",
        "degradations": [
            {"event": "shard-retry", "reason": "injected", "shard": 0},
            {"event": "tier-demoted", "reason": "diverged", "to": "event"},
        ],
        "guard": {"diverged": True, "demoted": True},
        "ok": False,
        "sharded": True,
    }

    def test_loads_legacy_format(self):
        health = BackendHealth.from_dict(self.LEGACY)
        assert health.to_dict() == {
            "backend": "vector",
            "demoted_to": "event",
            "degradations": self.LEGACY["degradations"],
            "guard": {"diverged": True, "demoted": True},
            "ok": False,
        }

    def test_round_trip(self):
        health = BackendHealth(backend="tiered")
        health.record("tier-demoted", "diverged", to="tiered:event")
        again = BackendHealth.from_dict(health.to_dict())
        assert again == health
        assert again.demoted_to == "tiered:event"
        assert not again.ok
        assert BackendHealth().ok

    def test_machine_result_loads_legacy_health(self):
        from repro.system import Machine, system_by_key
        from repro.workloads.synthetic import StridedCopyWorkload

        result = Machine(system_by_key("bs_dm"), backend="vector").run(
            StridedCopyWorkload(stride_lines=4, accesses_per_thread=256)
        )
        # Unguarded runs carry no health record, like the other tiers.
        assert result.backend_health is None
        data = result.to_dict()
        data["backend_health"] = self.LEGACY
        loaded = MachineResult.from_dict(data)
        assert loaded.backend_health.demoted_to == "event"
        assert loaded.fingerprint() == result.fingerprint()
