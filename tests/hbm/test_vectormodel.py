"""Tests for the vectorised ``"vector"`` fidelity tier.

Two contracts matter here:

1. **Streaming invariance** — chunking the decoded input any way at all
   produces bit-identical stats (hypothesis property);
2. **Event agreement where exactness is expected** — on per-bank
   in-order traces (strides >= 4) the vector tier reproduces the event
   device's makespan and hit counts exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hbm import (
    MemoryBackend,
    available_backends,
    create_backend,
    hbm2_config,
)
from repro.hbm.decode import DecodedTrace, concat_decoded, decode_trace
from repro.hbm.device import HBMDevice
from repro.hbm.stats import RemapTraffic, RunStats
from repro.hbm.vectormodel import VectorModel

CONFIG = hbm2_config()


def _random_trace(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = CONFIG.total_bytes // CONFIG.line_bytes
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(
        CONFIG.line_bytes
    )


def _stride_trace(stride_lines: int, count: int = 2048) -> np.ndarray:
    pa = np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * 64)
    return pa % np.uint64(CONFIG.total_bytes)


def _chunked(decoded, sizes):
    start = 0
    for size in sizes:
        yield DecodedSlice(decoded, start, start + size)
        start += size
    if start < len(decoded):
        yield DecodedSlice(decoded, start, len(decoded))


def DecodedSlice(decoded, lo, hi):
    from repro.hbm.decode import DecodedTrace

    return DecodedTrace(
        channel=decoded.channel[lo:hi],
        bank=decoded.bank[lo:hi],
        row=decoded.row[lo:hi],
        column=decoded.column[lo:hi],
        global_bank=decoded.global_bank[lo:hi],
    )


def _assert_stats_identical(a: RunStats, b: RunStats):
    assert a.requests == b.requests
    assert a.bytes_moved == b.bytes_moved
    assert a.makespan_ns == b.makespan_ns
    assert a.row_hits == b.row_hits
    assert a.row_misses == b.row_misses
    np.testing.assert_array_equal(
        a.per_channel_requests, b.per_channel_requests
    )
    np.testing.assert_array_equal(
        a.per_channel_busy_ns, b.per_channel_busy_ns
    )


class TestBasics:
    def test_registered_as_vector(self):
        assert "vector" in available_backends()
        backend = create_backend("vector", CONFIG, max_inflight=64)
        assert isinstance(backend, VectorModel)
        assert isinstance(backend, MemoryBackend)

    def test_empty_trace(self):
        stats = VectorModel(CONFIG).simulate(np.zeros(0, dtype=np.uint64))
        assert stats.requests == 0
        assert stats.makespan_ns == 0.0

    def test_empty_chunk_stream(self):
        stats = VectorModel(CONFIG).simulate_decoded(iter([]))
        assert stats.requests == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(SimulationError):
            VectorModel(CONFIG, max_inflight=0)
        with pytest.raises(SimulationError):
            VectorModel(CONFIG, block_accesses=0)

    def test_forced_miss_pays_full_cost(self):
        trace = _stride_trace(1, 512)
        decoded = decode_trace(trace, CONFIG)
        model = VectorModel(CONFIG)
        free = model.simulate_decoded(decoded)
        forced = model.simulate_decoded(
            decoded, forced_miss=np.ones(len(decoded), dtype=bool)
        )
        assert forced.row_hits == 0
        assert forced.makespan_ns > free.makespan_ns

    def test_forced_miss_rejected_for_chunks(self):
        decoded = decode_trace(_stride_trace(1, 64), CONFIG)
        with pytest.raises(SimulationError, match="forced_miss"):
            VectorModel(CONFIG).simulate_decoded(
                iter([decoded]), forced_miss=np.ones(64, dtype=bool)
            )

    def test_simulate_equals_simulate_decoded(self):
        ha = _random_trace(2048, seed=3)
        model = VectorModel(CONFIG)
        _assert_stats_identical(
            model.simulate(ha),
            model.simulate_decoded(decode_trace(ha, CONFIG)),
        )


class TestEventAgreement:
    """Where the vector tier must match the event reference exactly.

    Strides >= 4 touch each bank with a single in-order row stream, so
    neither FR-FCFS reordering nor the admission window can change
    anything: hit classification and the timing recurrence coincide.
    """

    @pytest.mark.parametrize("stride", (4, 8, 16, 32))
    def test_exact_makespan_and_hits(self, stride):
        trace = _stride_trace(stride)
        vector = VectorModel(CONFIG).simulate(trace)
        event = HBMDevice(CONFIG).simulate(trace)
        assert vector.makespan_ns == event.makespan_ns
        assert vector.row_hits == event.row_hits
        assert vector.row_misses == event.row_misses
        np.testing.assert_array_equal(
            vector.per_channel_requests, event.per_channel_requests
        )

    @pytest.mark.parametrize("seed", (0, 7))
    def test_random_trace_band(self, seed):
        """Contended traces stay within the fast-tier precedent band."""
        trace = _random_trace(4096, seed=seed)
        vector = VectorModel(CONFIG).simulate(trace)
        event = HBMDevice(CONFIG).simulate(trace)
        ratio = vector.makespan_ns / event.makespan_ns
        assert 0.5 < ratio < 2.0


class TestChunkInvariance:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=700), max_size=8),
        seed=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_is_bit_identical(self, sizes, seed):
        trace = _random_trace(1500, seed=seed)
        decoded = decode_trace(trace, CONFIG)
        model = VectorModel(CONFIG, block_accesses=256)
        whole = model.simulate_decoded(decoded)
        chunked = model.simulate_decoded(_chunked(decoded, sizes))
        _assert_stats_identical(whole, chunked)

    def test_device_chunked_equals_whole(self):
        """The event reference also accepts chunked input, bit-identically."""
        trace = _random_trace(3000, seed=11)
        decoded = decode_trace(trace, CONFIG)
        device = HBMDevice(CONFIG)
        whole = device.simulate_decoded(decoded)
        chunked = device.simulate_decoded(_chunked(decoded, [997, 512, 64]))
        _assert_stats_identical(whole, chunked)

    def test_fast_model_accepts_chunks(self):
        from repro.hbm.fastmodel import WindowModel

        trace = _random_trace(2048, seed=13)
        decoded = decode_trace(trace, CONFIG)
        model = WindowModel(CONFIG)
        whole = model.simulate_decoded(decoded)
        chunked = model.simulate_decoded(_chunked(decoded, [300, 1000]))
        _assert_stats_identical(whole, chunked)


class TestMergeLaws:
    def _partials(self):
        """Stats of three disjoint channel ranges of one trace."""
        trace = _random_trace(4096, seed=2)
        decoded = decode_trace(trace, CONFIG)
        thirds = np.array_split(np.arange(CONFIG.num_channels), 3)
        partials = []
        for ids in thirds:
            keep = np.isin(decoded.channel, ids)
            part = DecodedTrace(
                channel=decoded.channel[keep],
                bank=decoded.bank[keep],
                row=decoded.row[keep],
                column=decoded.column[keep],
                global_bank=decoded.global_bank[keep],
            )
            partials.append(VectorModel(CONFIG).simulate_decoded(part))
        return partials

    def test_identity(self):
        a, _, _ = self._partials()
        _assert_stats_identical(a.merge(RunStats.empty(a.num_channels)), a)
        _assert_stats_identical(RunStats.empty(a.num_channels).merge(a), a)

    def test_commutative(self):
        a, b, _ = self._partials()
        _assert_stats_identical(a.merge(b), b.merge(a))

    def test_associative_and_add(self):
        a, b, c = self._partials()
        _assert_stats_identical(
            a.merge(b).merge(c), a.merge(b.merge(c))
        )
        _assert_stats_identical(a + b + c, a.merge(b).merge(c))

    def test_channel_mismatch_rejected(self):
        a = RunStats.empty(8)
        with pytest.raises(ValueError, match="channel counts"):
            a.merge(RunStats.empty(16))

    def test_add_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            RunStats.empty(4) + 1

    def test_remap_traffic_merge(self):
        a = RemapTraffic(remaps=2, lines_copied=100, migration_ns=50.0)
        b = RemapTraffic(remaps=1, lines_copied=10, migration_ns=5.0)
        merged = a + b
        assert merged.remaps == 3
        assert merged.lines_copied == 110
        assert merged.migration_ns == 55.0
        assert merged.overhead_ns == 55.0


class TestStreamingDecode:
    def test_iter_chunks_bit_identical(self):
        from repro.core.mapping import identity_mapping
        from repro.core.sdam import GlobalMappingTranslator
        from repro.hbm.decode import decode_translated, iter_decoded_chunks

        pa = _random_trace(5000, seed=4)
        translator = GlobalMappingTranslator(
            identity_mapping(CONFIG.layout().width)
        )
        whole = decode_translated(pa, translator, CONFIG)
        rebuilt = concat_decoded(
            iter_decoded_chunks(pa, translator, CONFIG, chunk_accesses=777)
        )
        np.testing.assert_array_equal(whole.channel, rebuilt.channel)
        np.testing.assert_array_equal(whole.bank, rebuilt.bank)
        np.testing.assert_array_equal(whole.row, rebuilt.row)
        np.testing.assert_array_equal(whole.column, rebuilt.column)
        np.testing.assert_array_equal(whole.global_bank, rebuilt.global_bank)

    def test_chunk_accesses_validated(self):
        from repro.core.mapping import identity_mapping
        from repro.core.sdam import GlobalMappingTranslator
        from repro.errors import MappingError
        from repro.hbm.decode import iter_decoded_chunks

        translator = GlobalMappingTranslator(
            identity_mapping(CONFIG.layout().width)
        )
        with pytest.raises(MappingError, match="chunk_accesses"):
            list(
                iter_decoded_chunks(
                    _random_trace(16), translator, CONFIG, chunk_accesses=0
                )
            )
