"""Tests for the sweep engine, :class:`Session`.

The contract under test: a sweep computes each stage once, in memory,
and keeps nothing after it returns, so two sweeps of the same cells
are bit-identical; and a failing stage degrades to recorded errors on
the cells that need it instead of killing the sweep.
"""

import dataclasses
import json
import re

import pytest

from repro.errors import ConfigError
from repro.system import (
    Machine,
    MachineResult,
    Session,
    SuiteResult,
    system_by_key,
)
from repro.workloads import (
    MixedStrideWorkload,
    StridedCopyWorkload,
    spec2006_workload,
)


def small_workloads():
    return [
        MixedStrideWorkload(strides=(1, 16), accesses_per_stride=600),
        StridedCopyWorkload(stride_lines=8, accesses_per_thread=600),
    ]


def small_systems():
    # Covers all three stage shapes: no profiling (bs_dm), suite-mix
    # profiling (bs_bsm) and per-workload selection (sdm_bsm).
    return [
        system_by_key("bs_dm"),
        system_by_key("bs_bsm"),
        system_by_key("sdm_bsm"),
    ]


class ExplodingWorkload(StridedCopyWorkload):
    """A workload whose trace generation always fails."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.name = "exploding"

    def trace(self, base, input_seed=0):
        raise RuntimeError("boom")


class TestStageRuns:
    def test_each_stage_runs_once_per_sweep(self):
        workloads, systems = small_workloads(), small_systems()
        suite = Session().sweep(workloads, systems)
        assert not suite.errors
        # One profile per workload, shared by the mix and the SDAM
        # selections; one mix; one selection per SDAM cell; every cell.
        runs = {stage: m.runs for stage, m in suite.metrics.items()}
        assert runs == {"profile": 2, "mix": 1, "selection": 2, "evaluate": 6}
        assert suite.bytes_simulated == sum(
            result.stats.bytes_moved
            for row in suite.table.results.values()
            for result in row.values()
        )

    def test_unprofiled_systems_profile_nothing(self):
        systems = [system_by_key("bs_dm"), system_by_key("bs_hm")]
        suite = Session().sweep(small_workloads(), systems)
        runs = {stage: m.runs for stage, m in suite.metrics.items()}
        assert runs == {"profile": 0, "mix": 0, "selection": 0, "evaluate": 4}

    def test_two_sweeps_share_one_fingerprint(self):
        # A session keeps nothing between sweeps: its second sweep
        # recomputes every stage, and equals a fresh session's.
        workloads, systems = small_workloads(), small_systems()
        session = Session()
        first = session.sweep(workloads, systems)
        second = session.sweep(workloads, systems)
        fresh = Session().sweep(workloads, systems)
        for suite in (second, fresh):
            assert {s: m.runs for s, m in suite.metrics.items()} == {
                s: m.runs for s, m in first.metrics.items()
            }
            assert suite.fingerprint() == first.fingerprint()
            assert suite.table.fingerprint() == first.table.fingerprint()

    def test_different_seed_is_a_different_cell(self):
        workload = small_workloads()[0]
        system = system_by_key("bs_dm")
        session = Session()
        a = session.run(workload, system, eval_seed=1)
        b = session.run(workload, system, eval_seed=2)
        assert a.fingerprint() != b.fingerprint()

    def test_compare_profiles_the_workload_once(self, monkeypatch):
        calls = []
        profile = Machine.profile

        def counting(self, *args, **kwargs):
            calls.append(args)
            return profile(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "profile", counting)
        results = Session().compare(small_workloads()[0])
        assert len(results) == 4
        assert len(calls) == 1

    def test_run_keeps_the_live_selection(self):
        # The table holds each cell's own result, not its to_dict()
        # reduction, so the window permutations and the selector's
        # details survive.
        result = Session().run(spec2006_workload("gcc"), "sdm_bsm_ml4")
        selection = result.selection
        assert len(selection.window_perms) == selection.k == 4
        assert selection.details["trained"] is True


class TestOrder:
    def test_results_arrive_in_workload_major_order(self):
        workloads, systems = small_workloads(), small_systems()
        suite = Session().sweep(workloads, systems=systems)
        assert suite.table.workloads() == [w.name for w in workloads]
        assert suite.table.systems() == [s.label for s in systems]


class TestFailureIsolation:
    def test_one_bad_workload_does_not_kill_the_sweep(self):
        good = small_workloads()[0]
        bad = ExplodingWorkload(stride_lines=4, accesses_per_thread=600)
        systems = [system_by_key("bs_dm"), system_by_key("bs_hm")]
        suite = Session().sweep([good, bad], systems=systems)
        assert suite.table.workloads() == [good.name]
        assert len(suite.errors) == len(systems)
        for error in suite.errors:
            assert error.workload == "exploding"
            assert error.stage == "evaluate"
            assert "boom" in error.message
        with pytest.raises(ConfigError, match="boom"):
            suite.raise_errors()

    def test_failing_profile_fails_only_the_cells_that_need_it(self):
        good = small_workloads()[0]
        bad = ExplodingWorkload(stride_lines=4, accesses_per_thread=600)
        suite = Session().sweep(
            [good, bad], systems=small_systems()
        )
        # SDAM cells need their own profile; every BS+BSM cell needs the
        # suite mix, which folds in every profile.
        assert [(e.workload, e.system, e.stage) for e in suite.errors] == [
            (good.name, "bs_bsm", "profile"),
            ("exploding", "bs_dm", "evaluate"),
            ("exploding", "bs_bsm", "profile"),
            ("exploding", "sdm_bsm", "profile"),
        ]
        assert all("boom" in error.message for error in suite.errors)
        alone = Session().sweep(
            [good], systems=[system_by_key("bs_dm"), system_by_key("sdm_bsm")]
        )
        assert suite.table.fingerprint() == alone.table.fingerprint()

    def test_two_workloads_with_one_name_are_rejected(self):
        # Profiles, the mix and the table rows are keyed by name: a
        # second workload of the same name would silently replace the
        # first.
        short = MixedStrideWorkload((1, 16), accesses_per_stride=600)
        long = MixedStrideWorkload((1, 16), accesses_per_stride=1200)
        assert short.name == long.name
        with pytest.raises(ConfigError, match=re.escape(repr(short.name))):
            Session().sweep(
                [short, long],
                [system_by_key("bs_dm"), system_by_key("sdm_bsm")],
            )

    def test_two_systems_with_one_label_are_rejected(self):
        # The table's columns are keyed by label: a second system of
        # the same label would silently replace the first.
        twin = dataclasses.replace(system_by_key("bs_hm"), label="BS+DM")
        with pytest.raises(ConfigError, match=re.escape("'BS+DM'")):
            Session().sweep(small_workloads(), [system_by_key("bs_dm"), twin])

    def test_run_one_raises_on_failure(self):
        bad = ExplodingWorkload(stride_lines=4, accesses_per_thread=600)
        with pytest.raises(ConfigError, match="boom"):
            Session().run(bad, system_by_key("bs_dm"))

    @pytest.mark.parametrize("key", ["bs_bsm", "sdm_bsm"])
    def test_run_one_names_a_failing_profile_stage(self, key):
        bad = ExplodingWorkload(stride_lines=4, accesses_per_thread=600)
        expected = f"exploding on {key} failed in profile: RuntimeError: boom"
        with pytest.raises(ConfigError, match=expected):
            Session().run(bad, system_by_key(key))
        with pytest.raises(ConfigError, match=expected):
            Session().run(bad, key)


class TestSerialization:
    def test_suite_result_round_trips_through_json(self):
        workloads = [small_workloads()[0]]
        systems = [system_by_key("bs_dm"), system_by_key("sdm_bsm")]
        suite = Session().sweep(workloads, systems=systems)
        rebuilt = SuiteResult.from_dict(json.loads(suite.to_json()))
        assert rebuilt.to_dict() == suite.to_dict()
        assert rebuilt.table.geomean("SDM+BSM") == suite.table.geomean(
            "SDM+BSM"
        )

    def test_machine_result_round_trips(self):
        workload = small_workloads()[0]
        result = Session().run(workload, system_by_key("sdm_bsm"))
        rebuilt = MachineResult.from_dict(json.loads(result.to_json()))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.selection.num_mappings == result.selection.num_mappings
