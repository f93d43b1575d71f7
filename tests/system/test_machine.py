"""Integration tests for the full machine pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hbm.plancache import default_plan_cache
from repro.ml.dlkmeans import AutoencoderConfig
from repro.system.config import system_by_key
from repro.system.machine import Machine
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
        with pytest.raises(ConfigError, match="unknown memory model 'nope'"):
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
