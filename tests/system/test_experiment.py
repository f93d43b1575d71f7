"""Tests for the experiment drivers and reporting."""

import pytest

from repro.errors import ConfigError
from repro.system.config import system_by_key
from repro.system.experiment import SpeedupTable
from repro.system.machine import MachineResult
from repro.system.reporting import format_series, format_table
from repro.system.runner import Session
from repro.workloads.synthetic import MixedStrideWorkload


def fake_result(workload: str, system: str, time_us: float) -> MachineResult:
    from repro.hbm.stats import RunStats
    import numpy as np

    stats = RunStats(
        requests=1,
        bytes_moved=64,
        makespan_ns=time_us * 1000,
        row_hits=0,
        row_misses=1,
        num_channels=32,
        per_channel_requests=np.zeros(32, dtype=np.int64),
        per_channel_busy_ns=np.zeros(32),
    )
    return MachineResult(
        workload=workload,
        system=system,
        stats=stats,
        external=None,
        selection=None,
        compute_ns=0.0,
    )


class TestSpeedupTable:
    def make_table(self) -> SpeedupTable:
        table = SpeedupTable(baseline_label="BS+DM")
        table.add(fake_result("a", "BS+DM", 100))
        table.add(fake_result("a", "SDM", 50))
        table.add(fake_result("b", "BS+DM", 100))
        table.add(fake_result("b", "SDM", 25))
        return table

    def test_speedup(self):
        table = self.make_table()
        assert table.speedup("a", "SDM") == pytest.approx(2.0)
        assert table.speedup("b", "SDM") == pytest.approx(4.0)

    def test_geomean(self):
        table = self.make_table()
        assert table.geomean("SDM") == pytest.approx((2 * 4) ** 0.5)

    def test_missing_system(self):
        table = self.make_table()
        with pytest.raises(ConfigError):
            table.geomean("GHOST")

    def test_rows(self):
        rows = self.make_table().to_rows()
        assert len(rows) == 2
        assert rows[0]["workload"] == "a"


class TestRunSuite:
    def test_small_suite(self):
        workloads = [MixedStrideWorkload(strides=(1, 16), accesses_per_stride=1500)]
        systems = [system_by_key("bs_dm"), system_by_key("bs_hm")]
        table = Session().sweep(workloads, systems).raise_errors().table
        assert table.speedup(workloads[0].name, "BS+HM") > 1.0

    def test_no_workloads(self):
        with pytest.raises(ConfigError):
            Session().sweep([], [system_by_key("bs_dm")])


class TestReporting:
    def test_format_table_aligned(self):
        text = format_table(
            [{"w": "bfs", "s": 1.5}, {"w": "pagerank", "s": 2.25}],
            title="speedups",
        )
        lines = text.splitlines()
        assert lines[0] == "speedups"
        assert "bfs" in text and "2.25" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        text = format_series({1.0: 1.2, 0.25: 1.5}, "scale", "speedup")
        assert "scale" in text and "1.50" in text
