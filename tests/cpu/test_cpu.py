"""Tests for the CPU and accelerator request-stream models."""

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError

KiB = 1024


def streaming_trace(lines: int, base: int = 0) -> AccessTrace:
    va = np.uint64(base) + np.arange(lines, dtype=np.uint64) * np.uint64(64)
    return AccessTrace(va=va)


def hot_trace(lines: int, repeats: int) -> AccessTrace:
    one_pass = np.arange(lines, dtype=np.uint64) * np.uint64(64)
    return AccessTrace(va=np.tile(one_pass, repeats))


class TestCPUModel:
    def test_max_inflight(self):
        assert CPUModel(cores=4, mlp_per_core=16).max_inflight == 64

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            CPUModel(cores=0)

    @pytest.mark.parametrize("mlp", [0, -4])
    def test_mlp_below_one_rejected(self, mlp):
        with pytest.raises(ConfigError):
            CPUModel(mlp_per_core=mlp)

    @pytest.mark.parametrize(
        "caches",
        [{"l1_bytes": 1000}, {"l1_bytes": 0}, {"llc_bytes": 1000}, {"llc_bytes": -KiB}],
    )
    def test_bad_cache_geometry_rejected_at_construction(self, caches):
        with pytest.raises(ConfigError):
            CPUModel(**caches)

    def test_cache_resident_set_filters(self):
        cpu = CPUModel(cores=1)
        result = cpu.external_trace([hot_trace(lines=128, repeats=20)])
        assert result.l1_hit_rate > 0.9
        assert result.miss_fraction < 0.1

    def test_streaming_reaches_memory(self):
        cpu = CPUModel(cores=1)
        result = cpu.external_trace([streaming_trace(lines=64 * KiB // 64 * 4)])
        assert result.miss_fraction > 0.9

    def test_threads_round_robin_onto_cores(self):
        cpu = CPUModel(cores=2)
        traces = [streaming_trace(256, base=i << 24) for i in range(4)]
        result = cpu.external_trace(traces)
        assert result.program_accesses == 4 * 256

    def test_llc_filters_cross_thread_sharing(self):
        cpu = CPUModel(cores=2, llc_bytes=1024 * KiB)
        shared = streaming_trace(512)
        result = cpu.external_trace([shared, shared])
        # Second thread's L1 misses hit in the shared LLC.
        assert result.llc_hit_rate > 0.3

    def test_external_trace_is_line_aligned(self):
        cpu = CPUModel(cores=1)
        trace = AccessTrace(va=np.array([67, 4099], dtype=np.uint64))
        result = cpu.external_trace([trace])
        assert (result.trace.va % 64 == 0).all()

    @pytest.mark.parametrize("threads", [0, 1, 3])
    def test_only_cores_with_a_thread_filter(self, threads, monkeypatch):
        """An idle core's L1 sees no access, so it is not run; the
        stream equals that of a CPU with one core per thread."""
        calls = []
        original = SetAssociativeCache.filter_traces

        def counted(self, traces):
            calls.append((self.size_bytes, len(traces)))
            return original(self, traces)

        traces = [
            hot_trace(lines=2_048, repeats=2) if t % 2 else streaming_trace(
                3_000, base=t << 24
            )
            for t in range(threads)
        ]
        exact = CPUModel(cores=max(threads, 1)).external_trace(traces)
        monkeypatch.setattr(SetAssociativeCache, "filter_traces", counted)
        result = CPUModel(cores=4).external_trace(traces)
        # One call per busy L1, then the LLC's one.
        assert calls == [(64 * KiB, 1)] * threads + [(1024 * KiB, 1)]
        assert result.trace.va.tolist() == exact.trace.va.tolist()
        assert result.trace.is_write.tolist() == exact.trace.is_write.tolist()
        assert (result.l1_hit_rate, result.llc_hit_rate) == (
            exact.l1_hit_rate,
            exact.llc_hit_rate,
        )


class TestAcceleratorModel:
    def test_more_inflight_than_cpu(self):
        assert AcceleratorModel().max_inflight > CPUModel().max_inflight

    def test_most_accesses_reach_memory(self):
        accel = AcceleratorModel()
        cpu = CPUModel(cores=1)
        trace = hot_trace(lines=512, repeats=4)
        accel_frac = accel.external_trace([trace]).miss_fraction
        cpu_frac = cpu.external_trace([trace]).miss_fraction
        assert accel_frac > cpu_frac

    def test_no_scratch_passthrough(self):
        accel = AcceleratorModel(scratch_bytes=0)
        trace = hot_trace(lines=16, repeats=8)
        result = accel.external_trace([trace])
        assert result.miss_fraction == 1.0

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorModel(lanes=0)

    @pytest.mark.parametrize("mlp", [0, -1])
    def test_mlp_below_one_rejected(self, mlp):
        with pytest.raises(ConfigError):
            AcceleratorModel(mlp_per_lane=mlp)

    @pytest.mark.parametrize("scratch", [-1, -8 * KiB, 1000])
    def test_bad_scratch_rejected_at_construction(self, scratch):
        with pytest.raises(ConfigError):
            AcceleratorModel(scratch_bytes=scratch)
