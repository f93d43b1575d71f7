"""Tests for the cached sweep engine, :class:`Session`.

The contract under test: cached and fresh execution of the same sweep
are interchangeable — a warm cache serves every cell without
recomputation, a cache entry that fails its checksum is recomputed,
and a failing stage degrades to recorded errors on the cells that need
it instead of killing the sweep.
"""

import json
import re

import pytest

from repro.errors import ConfigError
from repro.system import (
    MachineResult,
    Session,
    SuiteResult,
    system_by_key,
)
from repro.workloads import MixedStrideWorkload, StridedCopyWorkload


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


class TestCaching:
    def test_warm_cache_serves_every_cell_bit_identically(self, tmp_path):
        workloads, systems = small_workloads(), small_systems()
        first = Session(tmp_path).sweep(workloads, systems)
        assert not first.errors
        assert first.metrics["evaluate"].cache_misses == len(workloads) * len(
            systems
        )

        # A fresh session on the same cache: zero recomputation.
        second = Session(tmp_path).sweep(workloads, systems)
        assert not second.errors
        assert second.cache_misses == 0
        assert second.metrics["evaluate"].cache_hits == len(workloads) * len(
            systems
        )
        assert second.bytes_simulated == 0
        assert second.table.to_dict() == first.table.to_dict()

    def test_edited_or_unsigned_result_is_recomputed(self, tmp_path):
        workloads, systems = small_workloads(), small_systems()
        first = Session(tmp_path).sweep(workloads, systems)
        edited, unsigned = sorted((tmp_path / "result").glob("*.json"))[:2]
        # One changed digit in a number: still valid JSON, wrong value.
        text = edited.read_text()
        digit = re.search(r": (\d)", text).start(1)
        edited.write_text(
            text[:digit] + str((int(text[digit]) + 1) % 10)
            + text[digit + 1:]
        )
        assert json.loads(edited.read_text()) != json.loads(text)
        unsigned.with_name(unsigned.name + ".sha256").unlink()

        second = Session(tmp_path).sweep(workloads, systems)
        assert not second.errors
        assert second.metrics["evaluate"].cache_misses == 2
        assert second.table.fingerprint() == first.table.fingerprint()
        # Both entries were republished with valid sidecars.
        third = Session(tmp_path).sweep(workloads, systems)
        assert third.metrics["evaluate"].cache_misses == 0
        assert third.table.fingerprint() == first.table.fingerprint()

    def test_cold_and_warm_sweeps_share_one_fingerprint(self, tmp_path):
        # Hits, misses and seconds say how a sweep ran, not what it
        # computed.
        workloads, systems = small_workloads(), small_systems()
        cold = Session(tmp_path).sweep(workloads, systems)
        warm = Session(tmp_path).sweep(workloads, systems)
        assert warm.cache_misses == 0 < cold.cache_misses
        assert warm.to_dict()["metrics"] != cold.to_dict()["metrics"]
        assert warm.fingerprint() == cold.fingerprint()

    def test_run_one_round_trips_through_the_disk_cache(self, tmp_path):
        workload = small_workloads()[0]
        system = system_by_key("sdm_bsm")
        first = Session(tmp_path).run(workload, system)
        second = Session(tmp_path).run(workload, system)
        assert second.to_dict() == first.to_dict()

    def test_memory_only_runner_keeps_a_fresh_selection(self):
        # The selection does not depend on the timing backend, so a
        # second sweep on another backend reuses the first one's.
        workload, system = small_workloads()[0], system_by_key("sdm_bsm")
        session = Session()
        event = session.sweep([workload], [system], backend="event")
        fast = session.sweep([workload], [system], backend="fast")
        assert not event.errors and not fast.errors
        assert event.metrics["selection"].cache_misses == 1
        selection = fast.metrics["selection"]
        assert (selection.cache_hits, selection.cache_misses) == (1, 0)
        # With the selection in hand, the profile is not even looked up.
        profile = fast.metrics["profile"]
        assert (profile.cache_hits, profile.cache_misses) == (0, 0)
        cold = Session().sweep(
            [workload], [system], backend="fast"
        )
        assert fast.table.fingerprint() == cold.table.fingerprint()

    def test_different_seed_is_a_different_cell(self, tmp_path):
        workload = small_workloads()[0]
        system = system_by_key("bs_dm")
        session = Session(tmp_path)
        a = session.run(workload, system, eval_seed=1)
        b = session.run(workload, system, eval_seed=2)
        assert a.fingerprint() != b.fingerprint()


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
