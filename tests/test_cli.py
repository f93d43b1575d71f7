"""Tests for the ``python -m repro`` command-line front end."""

import importlib
import json
import re

import pytest

from repro.__main__ import main


def _tiny_suite(monkeypatch):
    """Shrink the suite sweep so CLI tests stay fast."""
    from repro import api, system
    from repro.system import system_by_key

    monkeypatch.setattr(
        api,
        "evaluation_workloads",
        lambda *, quick=True: [
            api.mixed_stride_workload(strides=(1, 16), accesses_per_stride=600)
        ],
    )
    monkeypatch.setattr(
        system,
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
        assert set(data) == {"table", "errors", "metrics", "wall_seconds"}
        assert not data["errors"]
        assert list(data["table"]["results"]) == ["copy-mixed-1x16"]

    def test_suite_table_reports_wall_and_bytes(self, capsys, monkeypatch):
        _tiny_suite(monkeypatch)
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "speedup over BS+DM" in out
        assert re.search(r"wall \d+\.\ds, \d+\.\d MB simulated", out)

    def test_suite_rejects_quick_and_full(self):
        with pytest.raises(SystemExit):
            main(["suite", "--quick", "--full"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


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


#: Where each campaign subcommand looks its function up at call time.
CAMPAIGN_FUNCTIONS = {
    "ras": ("repro.ras.campaign", "run_campaign"),
    "adapt": ("repro.online.campaign", "run_adaptive_campaign"),
    "tier": ("repro.tier.campaign", "run_tier_campaign"),
}

#: Usage errors: each exits 2 with one ``error:`` line, no traceback.
#: ``{ckpt}`` is a checkpoint path under the test's tmp dir.
USAGE_ERRORS = {
    "ras-resume-without-checkpoint": ["ras", "--resume"],
    "adapt-resume-without-checkpoint": ["adapt", "--resume"],
    "stop-after-without-checkpoint": ["ras", "--stop-after", "2"],
    "ras-stop-after-zero": [
        "ras", "--checkpoint", "{ckpt}", "--stop-after", "0",
    ],
    "ras-stop-after-negative": [
        "ras", "--checkpoint", "{ckpt}", "--stop-after", "-3",
    ],
    "adapt-stop-after-zero": [
        "adapt", "--checkpoint", "{ckpt}", "--stop-after", "0",
    ],
    "adapt-stop-after-negative": [
        "adapt", "--checkpoint", "{ckpt}", "--stop-after", "-3",
    ],
    "adapt-window-zero": ["adapt", "--window", "0"],
    "adapt-window-negative": ["adapt", "--window", "-5"],
    "unknown-kind": ["ras", "--kinds", "foo"],
    "unknown-policy": ["tier", "--policy", "bogus"],
    "unknown-backend": ["adapt", "--backend", "bogus"],
    "missing-checkpoint": ["ras", "--checkpoint", "{ckpt}", "--resume"],
    "checkpoint-of-other-parameters": [
        "ras", "--seed", "3", "--kinds", "row",
        "--checkpoint", "{ckpt}", "--resume",
    ],
    "suite-unknown-backend": ["suite", "--backend", "bogus"],
    "audit-mappings-over-cmt-capacity": ["audit", "--mappings", "300"],
    "audit-negative-chunks": ["audit", "--chunks", "-1"],
    "stride-zero-accesses": ["stride", "--accesses", "0"],
    "stride-negative-accesses": ["stride", "--accesses", "-4"],
    "audit-negative-seed": ["audit", "--seed", "-1"],
    "ras-negative-seed": ["ras", "--seed", "-1"],
    "adapt-negative-seed": ["adapt", "--seed", "-1"],
    "tier-negative-seed": ["tier", "--seed", "-1"],
}


class _OneProblem:
    """A campaign result that found exactly one problem."""

    problems = ["planted problem"]
    ok = False

    def to_dict(self):
        return {}

    def summary(self):
        return "planted result"


class TestCampaignExitContract:
    @pytest.mark.parametrize("name", sorted(CAMPAIGN_FUNCTIONS))
    def test_exit_contract(self, name, capsys, monkeypatch):
        module, function = CAMPAIGN_FUNCTIONS[name]
        module = importlib.import_module(module)

        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, function, interrupted)
        assert main([name, "--quick"]) == 3
        assert "interrupted" in capsys.readouterr().err

        monkeypatch.setattr(module, function, lambda **kwargs: _OneProblem())
        assert main([name, "--quick"]) == 1
        captured = capsys.readouterr()
        assert "planted result" in captured.out
        assert captured.err == "error: planted problem\n"

        monkeypatch.undo()
        usage = next(v for v in USAGE_ERRORS.values() if v[0] == name)
        assert main(usage) == 2
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exits_2(self, case, capsys, tmp_path):
        ckpt = str(tmp_path / "ras.ckpt")
        if case == "checkpoint-of-other-parameters":
            written = ["ras", "--seed", "2", "--kinds", "row"]
            assert main(
                written + ["--checkpoint", ckpt, "--stop-after", "1"]
            ) == 3
            capsys.readouterr()
        argv = [arg.format(ckpt=ckpt) for arg in USAGE_ERRORS[case]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

