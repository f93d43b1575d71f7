"""Tests for the ``python -m repro`` command-line front end."""

import json

import pytest

from repro.__main__ import main


def _tiny_suite(monkeypatch):
    """Shrink the suite sweep so CLI tests stay fast."""
    from repro import api
    from repro.system import system_by_key

    monkeypatch.setattr(
        api,
        "evaluation_workloads",
        lambda *, quick=True: [
            api.mixed_stride_workload(strides=(1, 16), accesses_per_stride=600)
        ],
    )
    monkeypatch.setattr(
        api,
        "standard_systems",
        lambda: [system_by_key("bs_dm"), system_by_key("sdm_bsm")],
    )


class TestCLI:
    def test_hw(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "AMU" in out and "CMT" in out

    def test_stride(self, capsys):
        assert main(["stride", "--accesses", "2048"]) == 0
        out = capsys.readouterr().out
        assert "stride" in out and "204.8" in out

    def test_audit_ok(self, capsys):
        assert main(["audit", "--mappings", "4", "--chunks", "8"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "SDM+BSM" in out

    def test_suite_json(self, capsys, monkeypatch):
        _tiny_suite(monkeypatch)
        assert main(["suite", "--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"table", "errors", "metrics", "workers"}
        assert not data["errors"]
        assert list(data["table"]["results"]) == ["copy-mixed-1x16"]

    def test_suite_table_reports_cache_stats(self, capsys, monkeypatch):
        _tiny_suite(monkeypatch)
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "speedup over BS+DM" in out
        assert "cache" in out

    def test_suite_uses_cache_dir(self, capsys, monkeypatch, tmp_path):
        _tiny_suite(monkeypatch)
        assert main(["suite", "--cache-dir", str(tmp_path)]) == 0
        assert (tmp_path / "result").is_dir()
        capsys.readouterr()

    def test_suite_rejects_quick_and_full(self):
        with pytest.raises(SystemExit):
            main(["suite", "--quick", "--full"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_suite_resume_finishes_from_cache(self, capsys, monkeypatch, tmp_path):
        _tiny_suite(monkeypatch)
        assert main(["suite", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["suite", "--resume", "--cache-dir", str(tmp_path)]) == 0
        assert "speedup over BS+DM" in capsys.readouterr().out

    def test_verify_cache_healthy(self, capsys, monkeypatch, tmp_path):
        _tiny_suite(monkeypatch)
        assert main(["suite", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["verify-cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "result" in out and "healthy" in out

    def test_verify_cache_quarantines_corrupt_entry(
        self, capsys, monkeypatch, tmp_path
    ):
        _tiny_suite(monkeypatch)
        assert main(["suite", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        victim = next((tmp_path / "result").glob("*.json"))
        victim.write_text("{torn")
        assert main(["verify-cache", "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert victim.name in captured.out
        assert "quarantined" in captured.err
        assert (tmp_path / "quarantine" / "result" / victim.name).exists()
        # The sweep recomputes the quarantined cell and heals the cache.
        assert main(["suite", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["verify-cache", "--cache-dir", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verify"]["result"]["quarantined"] == []
        assert report["gc"] is None


class TestAdaptCommand:
    def test_adapt_quick_passes_gate(self, capsys, tmp_path):
        out_path = tmp_path / "adapt.json"
        code = main(
            ["adapt", "--quick", "--min-speedup", "1.1", "--out", str(out_path)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "speedup" in captured
        assert "<- best" in captured
        assert "stationary control: 0 remaps" in captured
        data = json.loads(out_path.read_text())
        assert data["speedup"] >= 1.1
        assert data["remaps"] >= 2
        assert data["stationary_remaps"] == 0
        assert "identity" in data["static_ns"]

    def test_adapt_json_output(self, capsys):
        assert main(["adapt", "--quick", "--seed", "7", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 7
        assert data["best_static"] in data["static_ns"]

    def test_adapt_gate_failure_is_nonzero(self, capsys):
        assert main(["adapt", "--quick", "--min-speedup", "1000"]) == 1
        assert "below the" in capsys.readouterr().err

    def test_adapt_rejects_quick_and_full(self):
        with pytest.raises(SystemExit):
            main(["adapt", "--quick", "--full"])


class TestOnlineBench:
    def test_bench_online_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "bench_online.json"
        code = main(
            [
                "bench",
                "--online",
                "--accesses",
                "16384",
                "--repeats",
                "1",
                "--out",
                str(out_path),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "streaming" in captured
        report = json.loads(out_path.read_text())
        assert "streaming" in report["summary_speedup_geomean"]
        assert set(report["cells"]) == {"stream", "random", "phase-mix"}


class TestRASCommand:
    def test_ras_quick_campaign(self, capsys, tmp_path):
        out_path = tmp_path / "ras_report.json"
        code = main(
            ["ras", "--quick", "--seed", "7", "--out", str(out_path)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "faults injected" in captured
        assert "fingerprint match" in captured
        data = json.loads(out_path.read_text())
        assert data["ok"] is True
        assert data["problems"] == []
        kinds = {d["site"] for d in data["report"]["detections"]}
        assert len(kinds) >= 4

    def test_ras_kind_subset_json(self, capsys):
        assert main(["ras", "--seed", "2", "--kinds", "row,cmt", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert len(data["report"]["detections"]) == 2

    def test_ras_stop_after_exits_3_then_resumes(self, capsys, tmp_path):
        ckpt = tmp_path / "ras.ckpt"
        base = [
            "ras", "--quick", "--seed", "2", "--kinds", "row,cmt",
            "--checkpoint", str(ckpt),
        ]
        assert main(base + ["--stop-after", "2"]) == 3
        assert "campaign interrupted" in capsys.readouterr().err
        assert ckpt.exists()
        assert main(base + ["--resume", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["resumed"] is True


class TestCampaignCheckpointFlags:
    def test_adapt_stop_after_exits_3_then_resumes(self, capsys, tmp_path):
        ckpt = tmp_path / "adapt.ckpt"
        base = ["adapt", "--quick", "--seed", "7", "--checkpoint", str(ckpt)]
        assert main(base + ["--stop-after", "8"]) == 3
        assert "campaign interrupted" in capsys.readouterr().err
        assert main(base + ["--resume", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["resumed"] is True


class TestServeCommand:
    def test_serve_selftest_writes_report(self, capsys, tmp_path):
        out = tmp_path / "service_report.json"
        assert main([
            "serve", "--selftest", "--quick", "--tenants", "2",
            "--no-controllers", "--out", str(out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "ISOLATED" in captured
        assert "aggressor tenant0 demoted to event" in captured
        data = json.loads(out.read_text())
        assert data["isolated"] is True
        assert data["tenants"] == ["tenant0", "tenant1"]
        assert data["mismatches"] == []

    def test_serve_json_output(self, capsys):
        assert main([
            "serve", "--quick", "--tenants", "2", "--no-controllers",
            "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isolated"] is True

    def test_serve_rejects_quick_and_full(self):
        with pytest.raises(SystemExit):
            main(["serve", "--quick", "--full"])

    def test_serve_selftest_interrupt_exits_3(self, capsys, monkeypatch):
        import repro.service

        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            repro.service, "run_service_campaign", interrupted
        )
        assert main(["serve", "--quick", "--tenants", "2"]) == 3
        assert "selftest interrupted" in capsys.readouterr().err


class TestServeBackendFlag:
    def test_selftest_backend_threads_through(self, capsys, monkeypatch):
        import repro.service

        seen = {}
        real = repro.service.run_service_campaign

        def spy(**kwargs):
            seen.update(kwargs)
            return real(
                seed=kwargs["seed"],
                tenants=kwargs["tenants"],
                quick=kwargs["quick"],
                controllers=False,
                backend=kwargs["backend"],
            )

        monkeypatch.setattr(repro.service, "run_service_campaign", spy)
        assert main(
            ["serve", "--quick", "--tenants", "2", "--backend", "fast"]
        ) == 0
        assert seen["backend"] == "fast"
        assert "ISOLATED" in capsys.readouterr().out


class TestTierCommand:
    def test_tier_quick_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "tier.json"
        assert main(
            ["tier", "--quick", "--out", str(out_path)]
        ) == 0
        captured = capsys.readouterr().out
        assert "smart" in captured
        assert "invariants: OK" in captured
        data = json.loads(out_path.read_text())
        assert data["ok"] is True
        assert data["problems"] == []
        for leg in ("skew", "pressure"):
            assert data["speedups"][leg] > 1.0

    def test_tier_json_single_policy(self, capsys):
        assert main(
            ["tier", "--quick", "--seed", "3", "--policy", "slow", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 3
        assert data["policies"] == ["slow"]

    def test_tier_rejects_quick_and_full(self):
        with pytest.raises(SystemExit):
            main(["tier", "--quick", "--full"])

    def test_tier_interrupt_exits_3(self, capsys, monkeypatch):
        import repro.tier.campaign

        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            repro.tier.campaign, "run_tier_campaign", interrupted
        )
        assert main(["tier", "--quick"]) == 3
        assert "interrupted" in capsys.readouterr().err


class TestTierBench:
    def test_bench_tier_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "bench_tier.json"
        code = main(
            [
                "bench",
                "--tier",
                "--repeats",
                "1",
                "--out",
                str(out_path),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "smart-tiered" in captured
        report = json.loads(out_path.read_text())
        assert report["benchmark"] == "tiered-memory"
        assert "smart" in report["summary_speedup_geomean"]
        assert set(report["cells"]) == {"skew", "pressure"}

    def test_bench_tier_gate_failure_exits_1(self, capsys, tmp_path):
        out_path = tmp_path / "bench_tier.json"
        assert main(
            [
                "bench",
                "--tier",
                "--repeats",
                "1",
                "--min-speedup",
                "1000",
                "--out",
                str(out_path),
            ]
        ) == 1
        assert "below the" in capsys.readouterr().err

    def test_bench_rejects_tier_and_online(self):
        with pytest.raises(SystemExit):
            main(["bench", "--tier", "--online"])
