"""Tests for the vectorised ``"vector"`` fidelity tier.

The contract that matters here is **event agreement where exactness is
expected**: on per-bank in-order traces (strides >= 4) the vector tier
reproduces the event device's makespan and hit counts exactly.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hbm import (
    MemoryBackend,
    available_backends,
    create_backend,
    hbm2_config,
)
from repro.hbm.decode import DecodedTrace, decode_trace
from repro.hbm.device import HBMDevice
from repro.hbm.stats import RemapTraffic, RunStats
from repro.hbm.vectormodel import VectorModel
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.workloads import MixedStrideWorkload

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


def test_the_relaxation_cap_binds_on_copy_streams(monkeypatch):
    """The bank/bus closures of a copy stream do not converge within
    ``MAX_RELAX_ROUNDS``: run to the fixed point, BS+DM's makespan on
    the mixed-stride copies is longer, since the closures only ever
    raise completion times."""
    copies = MixedStrideWorkload((1, 4, 8, 16), accesses_per_stride=1_024)
    machine = Machine(system_by_key("bs_dm"), backend="vector")
    capped = machine.run(copies).stats.makespan_ns
    monkeypatch.setattr("repro.hbm.vectormodel.MAX_RELAX_ROUNDS", 4_096)
    assert machine.run(copies).stats.makespan_ns > capped
