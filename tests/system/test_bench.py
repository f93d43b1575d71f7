"""Tests for the translation-datapath microbenchmark."""

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.hbm.device import HBMDevice
from repro.system.bench import (
    SCENARIOS,
    STAGES,
    run_benchmark,
    run_evaluate_benchmark,
    write_report,
)


@pytest.fixture(scope="module")
def tiny_report():
    # One small run shared by the structural assertions below: the
    # benchmark asserts fused == baseline bit-exactness internally, so
    # even a tiny trace is a real correctness check.
    return run_benchmark(accesses=4096, seed=1, repeats=1)


class TestRunBenchmark:
    def test_report_structure(self, tiny_report):
        assert tiny_report["schema"] == 1
        assert tiny_report["accesses"] == 4096
        assert set(tiny_report["cells"]) == set(SCENARIOS)
        for cell in tiny_report["cells"].values():
            assert set(cell) == set(STAGES)
            for timing in cell.values():
                assert timing["baseline_ns"] > 0
                assert timing["fused_ns"] > 0
                assert timing["speedup"] > 0

    def test_summary_is_geomean_over_scenarios(self, tiny_report):
        summary = tiny_report["summary_speedup_geomean"]
        assert set(summary) == set(STAGES)
        for stage in STAGES:
            speedups = [
                tiny_report["cells"][s][stage]["speedup"] for s in SCENARIOS
            ]
            product = 1.0
            for value in speedups:
                product *= value
            assert summary[stage] == pytest.approx(
                product ** (1.0 / len(speedups))
            )

    def test_write_report(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "bench.json")
        loaded = json.loads(path.read_text())
        assert loaded["benchmark"] == "translation-datapath"
        assert loaded["cells"].keys() == tiny_report["cells"].keys()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown bench scenario"):
            run_benchmark(accesses=256, repeats=1, scenarios=("nope",))


class TestEvaluateBenchmark:
    def test_report_records_live_event_tier(self):
        report = run_evaluate_benchmark(
            accesses=2048, repeats=1, scenarios=("bs_dm", "bs_hm")
        )
        for cell in report["cells"].values():
            live = cell["live_event"]
            assert live["event_ns"] > 0
            assert live["speedup"] == pytest.approx(
                live["event_ns"] / cell["evaluate"]["fused_ns"]
            )
        summary = report["summary_speedup_geomean"]
        assert set(summary) == {"evaluate", "live_event"}

    def test_live_event_tier_must_match_baseline(self, monkeypatch):
        simulate = HBMDevice.simulate_decoded

        def off_by_one(self, decoded, forced_miss=None):
            stats = simulate(self, decoded, forced_miss)
            return replace(stats, makespan_ns=stats.makespan_ns + 1.0)

        monkeypatch.setattr(HBMDevice, "simulate_decoded", off_by_one)
        with pytest.raises(AssertionError, match="diverges from the baseline"):
            run_evaluate_benchmark(
                accesses=512, repeats=1, scenarios=("bs_dm",)
            )


class TestBenchCLI:
    def test_bench_writes_report(self, capsys, tmp_path):
        out = tmp_path / "BENCH_translation.json"
        assert (
            main(
                [
                    "bench",
                    "--accesses",
                    "4096",
                    "--repeats",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "geomean speedups" in stdout
        assert out.exists()
        report = json.loads(out.read_text())
        assert report["accesses"] == 4096

    def test_min_speedup_gate_fails(self, capsys, tmp_path):
        # An absurd gate must fail with a diagnostic on stderr.
        code = main(
            [
                "bench",
                "--accesses",
                "4096",
                "--repeats",
                "1",
                "--out",
                str(tmp_path / "b.json"),
                "--min-speedup",
                "1e9",
            ]
        )
        assert code == 1
        assert "below the" in capsys.readouterr().err
