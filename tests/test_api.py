"""Tests for the curated surface (``repro``, Session, the helpers)."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import api
from repro.__main__ import main
from repro.errors import ConfigError
from repro.system import Session, SuiteResult, system_by_key


def tiny_workload():
    return api.mixed_stride_workload(strides=(1, 16), accesses_per_stride=1500)


class TestSession:
    def test_exported_from_top_level(self):
        assert repro.Session is Session
        assert "Session" in repro.__all__
        assert "run_suite" not in repro.__all__
        assert "ExperimentRunner" not in repro.__all__

    @pytest.mark.parametrize("name", ["workers", "bogus"])
    def test_unknown_machine_argument_fails_at_construction(self, name):
        with pytest.raises(ConfigError, match=name):
            Session(**{name: 1})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"backend": "bogus"}, "bogus"),
            ({"backend_options": {"x": 1}}, "x"),
            ({"engine": "gpu"}, "gpu"),
            ({"backend": "fast", "backend_options": {"reorder_window": 0}},
             "reorder_window"),
        ],
        ids=["backend", "backend-option", "engine", "option-value"],
    )
    def test_bad_machine_value_fails_at_construction(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            Session(**kwargs)

    def test_compare_keys_by_callers_key(self):
        session = Session()
        config = system_by_key("sdm_bsm_ml4")
        results = session.compare(tiny_workload(), systems=("bs_dm", config))
        assert set(results) == {"bs_dm", "sdm_bsm_ml4"}
        assert results["sdm_bsm_ml4"].time_ns < results["bs_dm"].time_ns

    def test_sweep_returns_suite_result(self):
        session = Session()
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
        assert repro.AdaptiveController is AdaptiveController
        assert repro.run_adaptive_campaign is run_adaptive_campaign

    def test_core_reexports_selection(self):
        from repro import core
        from repro.core.selection import select_application_mapping

        assert core.select_application_mapping is select_application_mapping
        assert "MappingSelection" in core.__all__

    def test_api_holds_only_the_workload_helpers(self):
        assert sorted(api.__all__) == [
            "QUICK_DL_CONFIG",
            "evaluation_workloads",
            "mixed_stride_workload",
            "strided_workload",
        ]
        for name in ("evaluation_workloads", "mixed_stride_workload",
                     "strided_workload"):
            assert getattr(repro, name) is getattr(api, name)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_run_adaptive_campaign(self):
        result = repro.run_adaptive_campaign(seed=0, quick=True)
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
    """``repro suite``: the Fig. 12 sweep, all workloads x all systems."""

    def test_quick_sweep_produces_table(self, capsys):
        assert main(["suite", "--quick", "--json"]) == 0
        suite = SuiteResult.from_dict(json.loads(capsys.readouterr().out))
        table = suite.table
        assert len(table.workloads()) == 4
        assert "BS+DM" in table.systems()
        for system in table.systems():
            assert table.geomean(system) > 0

    def test_quick_dl_config_applies_to_that_call_only(self, monkeypatch):
        monkeypatch.setattr(
            api, "evaluation_workloads", lambda *, quick=True: [tiny_workload()]
        )
        monkeypatch.setattr(
            repro.system, "standard_systems", lambda: [system_by_key("bs_dm")]
        )
        seen = []
        sweep = Session.sweep

        def recording_sweep(self, *args, **kwargs):
            seen.append(dict(self.machine_kwargs))
            return sweep(self, *args, **kwargs)

        monkeypatch.setattr(Session, "sweep", recording_sweep)
        assert main(["suite", "--quick"]) == 0
        assert main(["suite", "--full", "--backend", "event"]) == 0
        assert seen == [
            {"dl_config": api.QUICK_DL_CONFIG},
            {"backend": "event"},
        ]


#: The packages whose exports these checks cover: most load their
#: off-path modules on first use (``repro.lazy``); ``repro.ras``
#: exports only eagerly imported names.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.mem",
    "repro.online",
    "repro.ras",
    "repro.system",
    "repro.tier",
)


def _bindings(package: str, name: str) -> dict[int, object]:
    """Every distinct object bound to ``name`` in a module under ``package``."""
    root = importlib.import_module(package)
    found = {}
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.endswith("__main__"):
            continue
        value = vars(importlib.import_module(info.name)).get(name)
        if value is not None:
            found[id(value)] = value
    return found


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_name_is_its_home_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            if name == "__version__":
                continue
            value = getattr(module, name)
            # An export under another name (``run_ras_campaign``) is
            # found by the name it was defined under.
            homes = _bindings(package, getattr(value, "__name__", name))
            assert len(homes) == 1, (package, name)
            assert value is next(iter(homes.values()))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_name_is_listed_by_dir(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module {package!r} has no"):
            module.no_such_name

    def test_lazy_names_import_in_a_fresh_interpreter(self):
        code = (
            "from repro.online import run_adaptive_campaign\n"
            "from repro import Session\n"
            "print(run_adaptive_campaign.__module__, Session.__module__)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert done.stdout.split() == [
            "repro.online.campaign",
            "repro.system.runner",
        ]


class TestVersion:
    def test_pyproject_reads_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        project = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert "version" in project["project"]["dynamic"]
        dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "repro.__version__"}
        # setuptools reads the attribute without importing the package,
        # which works only for a literal assignment.
        source = (root / "src" / "repro" / "__init__.py").read_text()
        literals = [
            node.value.value
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign)
            and [ast.unparse(target) for target in node.targets] == ["__version__"]
            and isinstance(node.value, ast.Constant)
        ]
        assert literals == [repro.__version__]
