"""Integration tests for the full machine pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.core import bitmatrix
from repro.core.sdam import identity_translator
from repro.errors import ConfigError
from repro.hbm.config import hbm2_config
from repro.hbm.plancache import default_plan_cache
from repro.ml.dlkmeans import AutoencoderConfig
from repro.system.config import system_by_key
from repro.system import machine as machine_module
from repro.system.machine import (
    _LAST_STREAM,
    _MIX_TRANSLATOR,
    Machine,
    _hash_translator,
)
from repro.system.stages import build_mix_profile
from repro.workloads import PageRankWorkload
from repro.workloads.synthetic import MixedStrideWorkload, StridedCopyWorkload

FAST_DL = AutoencoderConfig(
    pretrain_steps=20, joint_steps=10, hidden_dim=16, delta_embed_dim=8
)

SMALL = dict(accesses_per_stride=2000)


@pytest.fixture(scope="module")
def mixed_results():
    """Run the mixed-stride workload under four systems once."""
    workload = MixedStrideWorkload(strides=(1, 16), **SMALL)
    out = {}
    for key in ("bs_dm", "bs_hm", "sdm_bsm", "sdm_bsm_ml4"):
        machine = Machine(system_by_key(key), dl_config=FAST_DL)
        out[key] = machine.run(workload)
    return out


class TestPipeline:
    def test_baseline_runs(self, mixed_results):
        result = mixed_results["bs_dm"]
        assert result.stats.requests > 0
        assert result.time_ns > 0
        assert result.selection is None

    def test_sdam_selection_recorded(self, mixed_results):
        result = mixed_results["sdm_bsm_ml4"]
        assert result.selection is not None
        assert result.selection.num_mappings >= 1
        assert result.profiling_seconds > 0

    def test_sdam_beats_baseline_on_mixed_strides(self, mixed_results):
        assert (
            mixed_results["sdm_bsm_ml4"].time_ns
            < mixed_results["bs_dm"].time_ns
        )

    def test_hash_beats_default(self, mixed_results):
        assert mixed_results["bs_hm"].time_ns < mixed_results["bs_dm"].time_ns

    def test_summary_readable(self, mixed_results):
        text = mixed_results["bs_dm"].summary()
        assert "GB/s" in text


class TestProfileAPI:
    def test_profile_returns_per_variable_traces(self):
        workload = StridedCopyWorkload(stride_lines=4, accesses_per_thread=1000)
        machine = Machine(system_by_key("bs_dm"))
        profile = machine.profile(workload)
        assert profile.num_variables == 2
        assert profile.total_references > 0

    def test_profiled_addresses_are_physical(self):
        workload = StridedCopyWorkload(stride_lines=1, accesses_per_thread=1000)
        machine = Machine(system_by_key("bs_dm"))
        profile = machine.profile(workload)
        top = profile.profiles[0]
        machine.geometry.check_address(np.asarray(top.addresses))


class TestEngines:
    def test_accelerator_engine(self):
        workload = MixedStrideWorkload(strides=(1, 16), **SMALL)
        machine = Machine(system_by_key("bs_dm"), engine="accelerator")
        result = machine.run(workload)
        # Accelerators filter less: more external accesses per program access.
        cpu_result = Machine(system_by_key("bs_dm")).run(workload)
        assert (
            result.external.miss_fraction >= cpu_result.external.miss_fraction
        )

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            Machine(system_by_key("bs_dm"), engine="gpu")

    def test_unknown_memory_model(self):
        with pytest.raises(ConfigError):
            Machine(system_by_key("bs_dm"), backend="exact")

    def test_unknown_engine_message_names_it(self):
        with pytest.raises(ConfigError, match="unknown engine 'gpu'"):
            Machine(system_by_key("bs_dm"), engine="gpu")

    def test_unknown_memory_model_message_names_it(self):
        with pytest.raises(ConfigError, match="unknown memory backend 'nope'"):
            Machine(system_by_key("bs_dm"), backend="nope")

    def test_event_model_runs(self):
        workload = MixedStrideWorkload(strides=(1, 16), accesses_per_stride=500)
        machine = Machine(system_by_key("bs_dm"), backend="event")
        result = machine.run(workload)
        assert result.stats.requests > 0


class TestCrossValidation:
    def test_profile_and_eval_inputs_differ_but_speedup_holds(self):
        """Section 7.4: different inputs for profiling and evaluation."""
        workload = MixedStrideWorkload(strides=(1, 16), **SMALL)
        baseline = Machine(system_by_key("bs_dm")).run(
            workload, profile_seed=0, eval_seed=3
        )
        sdam = Machine(system_by_key("sdm_bsm_ml4")).run(
            workload, profile_seed=0, eval_seed=3
        )
        assert sdam.time_ns < baseline.time_ns


class TestConstruction:
    """Bad arguments fail when the machine is built, not at its first run."""

    @pytest.mark.parametrize("backend", ["fast", "vector", "event", "tiered"])
    def test_inflight_backend_option_rejected(self, backend):
        with pytest.raises(ConfigError, match="engine sets the in-flight"):
            Machine(
                system_by_key("bs_dm"),
                backend=backend,
                backend_options={"max_inflight": 8},
            )

    @pytest.mark.parametrize("backend", ["fast", "tiered"])
    def test_unknown_backend_option_rejected(self, backend):
        # The tiered backend forwards what it does not take to its
        # delegate (the fast tier by default), whose check names it.
        with pytest.raises(
            ConfigError, match="memory backend 'fast': .*'bogus'"
        ):
            Machine(
                system_by_key("bs_dm"),
                backend=backend,
                backend_options={"bogus": 1},
            )

    @pytest.mark.parametrize(
        "backend, options",
        [
            ("fast", {"reorder_window": 0}),
            ("vector", {"block_accesses": 0}),
            ("event", {"frfcfs_window": 1.5}),
            ("tiered", {"reorder_window": 0}),
        ],
        ids=["fast", "vector", "event", "tiered"],
    )
    def test_bad_backend_option_value_rejected(self, backend, options):
        # The tier's own check (a SimulationError) surfaces as the same
        # ConfigError class as an unknown option.
        (option,) = options
        with pytest.raises(
            ConfigError, match=f"memory backend '.*': {option} must be"
        ):
            Machine(
                system_by_key("bs_dm"),
                backend=backend,
                backend_options=options,
            )

    def test_valid_tiered_options_construct_and_run(self):
        machine = Machine(
            system_by_key("bs_dm"),
            backend="tiered",
            backend_options={"policy": "smart", "fast_pages": 4},
        )
        result = machine.run(StridedCopyWorkload(accesses_per_thread=1200))
        assert result.tier_traffic.slow_accesses > 0
        assert result.stats.requests == (
            result.tier_traffic.fast_accesses + result.tier_traffic.slow_accesses
        )

    @pytest.mark.parametrize("system", ["bs_dm", None])
    def test_system_must_be_a_system_config(self, system):
        with pytest.raises(ConfigError, match="SystemConfig"):
            Machine(system)

    @pytest.mark.parametrize("colours", [0, -1])
    def test_chunk_colours_below_one_rejected(self, colours):
        with pytest.raises(ConfigError, match="chunk_colours"):
            Machine(system_by_key("bs_dm"), chunk_colours=colours)


def test_run_fills_the_default_plan_cache():
    """Decode plans come from the process-wide cache (perfbench reads it)."""
    cache = default_plan_cache()
    cache.clear()
    misses = cache.misses
    workload = StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200)
    Machine(system_by_key("sdm_bsm_ml4")).run(workload)
    assert len(cache) > 0
    assert cache.misses > misses


def test_bs_hm_runs_share_one_translator_per_config():
    """The BS+HM mapping is a pure function of the layout, so it is
    built once per ``HBMConfig``; a shared one changes no result."""
    workload = StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200)
    system = system_by_key("bs_hm")
    first, second = Machine(system), Machine(system)
    translator = first._global_translator(None)
    assert second._global_translator(None) is translator
    other = Machine(system, hbm=hbm2_config(banks_per_channel=16))
    assert other._global_translator(None) is not translator
    warm = [first.run(workload), second.run(workload)]
    for machine, result in zip((first, second), warm):
        _hash_translator.cache_clear()
        _LAST_STREAM.clear()
        assert result.fingerprint() == machine.run(workload).fingerprint()


def test_bs_bsm_runs_share_one_translator_per_mix(monkeypatch):
    """BS+BSM's global mapping is a pure function of the suite mix and
    the config, so the runs that share one mix select it once."""
    workloads = [
        StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200),
        MixedStrideWorkload(strides=(1, 16), accesses_per_stride=600),
    ]
    system = system_by_key("bs_bsm")
    mix = build_mix_profile([Machine(system).profile(w) for w in workloads])
    selections = []
    select = machine_module.select_global_mapping
    monkeypatch.setattr(
        machine_module,
        "select_global_mapping",
        lambda *args: selections.append(args) or select(*args),
    )
    _MIX_TRANSLATOR.clear()
    shared = [Machine(system).run(w, mix_profile=mix) for w in workloads]
    assert len(selections) == 1
    for workload, result in zip(workloads, shared):
        _MIX_TRANSLATOR.clear()
        _LAST_STREAM.clear()
        fresh = Machine(system).run(workload, mix_profile=mix)
        assert result.time_ns == fresh.time_ns
        assert result.fingerprint() == fresh.fingerprint()
    assert len(selections) == 3
    # An equal mix that is another object, or another config, selects
    # again.
    other = build_mix_profile([Machine(system).profile(w) for w in workloads])
    Machine(system).run(workloads[0], mix_profile=other)
    Machine(system, hbm=hbm2_config(banks_per_channel=16)).run(
        workloads[0], mix_profile=other
    )
    assert len(selections) == 5


def test_identity_translator_shared_and_no_inversion_per_run(monkeypatch):
    """BS+DM machines and baseline kernels share one identity translator
    per width, and no run inverts a GF(2) matrix: permutations pass the
    structural check, and the BS+HM fold is checked once per config."""
    width = hbm2_config().layout().width
    dm = Machine(system_by_key("bs_dm"))
    assert dm._global_translator(None) is identity_translator(width)
    bsm = Machine(system_by_key("bs_bsm"))
    assert bsm._global_translator(None) is identity_translator(width)
    workload = StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200)
    machines = [
        Machine(system_by_key(key))
        for key in ("bs_dm", "bs_bsm", "bs_hm", "sdm_bsm")
    ]
    for machine in machines:  # warm the per-config BS+HM translator
        machine.run(workload)
    inversions = []
    inverse = bitmatrix.gf2_inverse
    monkeypatch.setattr(
        bitmatrix,
        "gf2_inverse",
        lambda matrix: inversions.append(matrix.shape) or inverse(matrix),
    )
    for machine in machines:
        machine.run(workload)
    assert inversions == []


def test_cluster_numbering_does_not_move_the_run():
    """Relabelling a selection's clusters, consistently in
    ``window_perms`` and ``variable_cluster``, keeps every variable's
    mapping, so the run must not change.  K-Means labels are only the
    draw order of its seeds."""
    machine = Machine(system_by_key("sdm_bsm_ml32"), engine="accelerator")
    workload = PageRankWorkload()
    selection = machine.select(machine.profile(workload))
    assert selection.num_mappings == 3
    order = (0, 2, 1)  # old cluster c becomes cluster order[c]
    perms = [None] * 3
    for old, new in enumerate(order):
        perms[new] = selection.window_perms[old]
    relabelled = dataclasses.replace(
        selection,
        window_perms=perms,
        variable_cluster={
            var: order[c] for var, c in selection.variable_cluster.items()
        },
    )
    for var in selection.variable_cluster:
        assert np.array_equal(
            relabelled.perm_for_variable(var), selection.perm_for_variable(var)
        )
    as_selected = machine.run(workload, selection=selection)
    as_relabelled = machine.run(workload, selection=relabelled)
    assert as_relabelled.time_ns == as_selected.time_ns
    assert as_relabelled.stats.fingerprint() == as_selected.stats.fingerprint()
