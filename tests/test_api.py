"""Tests for the convenience API surface (Session and re-exports)."""

import repro
from repro import api
from repro.system import MachineResult, SuiteResult, system_by_key


def tiny_workload():
    return api.mixed_stride_workload(strides=(1, 16), accesses_per_stride=1500)


class TestSession:
    def test_exported_from_top_level(self):
        assert repro.Session is api.Session
        assert "Session" in repro.__all__

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "stages"))
        session = api.Session()
        assert session.cache_dir == str(tmp_path / "stages")

    def test_none_disables_the_disk_cache(self):
        session = api.Session(cache_dir=None, workers=0)
        assert session.cache_dir is None
        assert session.runner.store is None

    def test_run_persists_stages(self, tmp_path):
        session = api.Session(cache_dir=tmp_path, workers=0)
        result = session.run(tiny_workload(), "sdm_bsm")
        assert isinstance(result, MachineResult)
        assert result.system == "SDM+BSM"
        assert list((tmp_path / "result").iterdir())
        assert list((tmp_path / "profile").iterdir())

    def test_compare_keys_by_callers_key(self):
        session = api.Session(cache_dir=None, workers=0)
        config = system_by_key("sdm_bsm_ml4")
        results = session.compare(tiny_workload(), systems=("bs_dm", config))
        assert set(results) == {"bs_dm", "sdm_bsm_ml4"}
        assert results["sdm_bsm_ml4"].time_ns < results["bs_dm"].time_ns

    def test_sweep_returns_suite_result(self):
        session = api.Session(cache_dir=None, workers=0)
        suite = session.sweep(
            [tiny_workload()], systems=["bs_dm", "sdm_bsm"]
        )
        assert isinstance(suite, SuiteResult)
        assert not suite.errors
        assert suite.table.systems() == ["BS+DM", "SDM+BSM"]
        assert suite.table.geomean("SDM+BSM") > 0


class TestOnlineExports:
    def test_adaptive_surface_exported_coherently(self):
        from repro.online import AdaptiveController, run_adaptive_campaign

        for name in (
            "AdaptiveController",
            "AdaptiveCampaignResult",
            "run_adaptive_campaign",
            "MappingSelection",
            "select_application_mapping",
        ):
            assert name in repro.__all__
            assert name in api.__all__
            assert getattr(repro, name) is getattr(api, name)
        assert repro.AdaptiveController is AdaptiveController
        assert repro.run_adaptive_campaign is run_adaptive_campaign

    def test_core_reexports_selection(self):
        from repro import core
        from repro.core.selection import select_application_mapping

        assert core.select_application_mapping is select_application_mapping
        assert "MappingSelection" in core.__all__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_session_adaptive_campaign(self):
        session = api.Session(cache_dir=None, workers=0)
        result = session.adaptive_campaign(seed=0, quick=True)
        assert result.stationary_remaps == 0
        assert result.speedup > 1.0


class TestBuilders:
    def test_strided_workload(self):
        workload = api.strided_workload(stride_lines=8)
        assert workload.stride_lines == 8

    def test_mixed_workload(self):
        workload = api.mixed_stride_workload(strides=(1, 2))
        assert workload.threads == 2


class TestFullEvaluation:
    def test_quick_sweep_produces_table(self):
        session = api.Session(cache_dir=None, workers=0)
        table = session.full_evaluation(quick=True).raise_errors().table
        assert len(table.workloads()) == 4
        assert "BS+DM" in table.systems()
        for system in table.systems():
            assert table.geomean(system) > 0
