"""Tests for the workload pattern helpers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workloads.base import (
    VariableSpec,
    gather_addresses,
    hotspot_addresses,
    pointer_chase_addresses,
    random_addresses,
    strided_addresses,
    tagged_trace,
)

SIZE = 1 << 20


class TestVariableSpec:
    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            VariableSpec("x", 0)


class TestStrided:
    def test_constant_stride(self):
        addresses = strided_addresses(0x1000, SIZE, 4, stride_lines=2)
        assert np.diff(addresses).tolist() == [128, 128, 128]

    def test_wraps_at_size(self):
        addresses = strided_addresses(0, 256, 8, stride_lines=1)
        assert addresses.max() < 256

    def test_start_line_offsets(self):
        a = strided_addresses(0, SIZE, 4, 1, start_line=0)
        b = strided_addresses(0, SIZE, 4, 1, start_line=2)
        assert b[0] == a[2]

    def test_empty(self):
        assert strided_addresses(0, SIZE, 0).size == 0


class TestRandomAndHotspot:
    def test_random_within_bounds_and_aligned(self):
        rng = np.random.default_rng(0)
        addresses = random_addresses(0x4000, SIZE, 256, rng)
        assert (addresses >= 0x4000).all()
        assert (addresses < 0x4000 + SIZE).all()
        assert (addresses % 64 == 0).all()

    def test_hotspot_concentrates(self):
        rng = np.random.default_rng(1)
        addresses = hotspot_addresses(0, SIZE, 4000, rng, hot_fraction=0.1)
        in_hot = (addresses < SIZE * 0.1).mean()
        assert in_hot > 0.8

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert random_addresses(0, SIZE, 0, rng).size == 0
        assert hotspot_addresses(0, SIZE, 0, rng).size == 0


class TestGather:
    def test_indexing(self):
        addresses = gather_addresses(0x100, 8, np.array([0, 2, 5]))
        assert addresses.tolist() == [0x100, 0x110, 0x128]


class TestPointerChase:
    def test_visits_are_dependent_chain(self):
        rng = np.random.default_rng(2)
        addresses = pointer_chase_addresses(0, SIZE, 100, rng)
        assert addresses.size == 100
        # A permutation walk rarely revisits within a short prefix.
        assert np.unique(addresses[:50]).size > 40

    def test_within_bounds(self):
        rng = np.random.default_rng(3)
        addresses = pointer_chase_addresses(0x1000, 4096, 64, rng)
        assert (addresses >= 0x1000).all()
        assert (addresses < 0x1000 + 4096).all()

    @pytest.mark.parametrize(
        "size, count",
        # 8 lines for 50 steps walks the cycle through line 0 many times.
        [(8 * 64, 50), (4096, 64), (SIZE, 100), (64, 5)],
    )
    def test_walks_the_one_permutation_draw(self, size, count):
        """The path is the walk from line 0 through a twin generator's
        ``permutation(lines)``, and that permutation is the only draw."""
        rng = np.random.default_rng(11)
        twin = np.random.default_rng(11)
        addresses = pointer_chase_addresses(0x1000, size, count, rng)
        successor = twin.permutation(max(size // 64, 2))
        expected, node = [], 0
        for _ in range(count):
            expected.append(0x1000 + 64 * node)
            node = int(successor[node])
        assert addresses.dtype == np.uint64
        assert addresses.tolist() == expected
        assert rng.integers(1 << 62) == twin.integers(1 << 62)

    def test_empty_draws_nothing(self):
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        addresses = pointer_chase_addresses(0, SIZE, 0, rng)
        assert addresses.dtype == np.uint64 and addresses.size == 0
        assert rng.integers(1 << 62) == twin.integers(1 << 62)


class TestTaggedTrace:
    def test_tags_and_writes(self):
        trace = tagged_trace(
            [
                (np.array([0, 64], dtype=np.uint64), 0, False),
                (np.array([128], dtype=np.uint64), 1, True),
            ]
        )
        assert len(trace) == 3
        assert set(trace.variable.tolist()) == {0, 1}
        assert trace.is_write.sum() == 1

    def test_proportional_interleave(self):
        big = np.arange(8, dtype=np.uint64)
        small = np.arange(100, 102, dtype=np.uint64)
        trace = tagged_trace([(big, 0, False), (small, 1, False)])
        positions = np.nonzero(trace.variable == 1)[0]
        # The two small-stream accesses spread across the merged trace.
        assert positions[0] < 5
        assert positions[1] > 4

    def test_phase_concatenation(self):
        trace = tagged_trace(
            [
                (np.array([1], dtype=np.uint64), 0, False),
                (np.array([2], dtype=np.uint64), 1, False),
            ],
            interleave=False,
        )
        assert trace.va.tolist() == [1, 2]

    def test_empty_streams_skipped(self):
        trace = tagged_trace([(np.zeros(0, dtype=np.uint64), 0, False)])
        assert len(trace) == 0
