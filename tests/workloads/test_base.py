"""Tests for the workload pattern helpers."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workloads.base import (
    LINE,
    VariableSpec,
    gather_addresses,
    hotspot_addresses,
    pointer_chase_addresses,
    random_addresses,
    strided_addresses,
    tagged_trace,
)

SIZE = 1 << 20


def permutation_walk(
    base: int, size: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The pointer chase as it was drawn before the orbit draw: a walk
    from line 0 through one permutation of every line, kept verbatim as
    the distribution oracle."""
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    lines = max(size // LINE, 2)
    # The permutation is the only draw.  The walk reads successors as
    # Python ints through a memoryview and converts the path once: the
    # chain is far shorter than the permutation, so copying or listing
    # the whole permutation would cost more than the walk.
    successor = memoryview(rng.permutation(lines))
    path = []
    node = 0
    for _ in range(count):
        path.append(node)
        node = successor[node]
    return np.uint64(base) + np.array(path, dtype=np.uint64) * np.uint64(LINE)


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
    def test_draws_the_orbit_of_line_zero(self, size, count):
        """The path is line 0's cycle as a twin generator draws it: its
        length with ``integers``, then the other lines with ``choice``,
        repeated to ``count`` steps; nothing else is drawn."""
        rng = np.random.default_rng(11)
        twin = np.random.default_rng(11)
        addresses = pointer_chase_addresses(0x1000, size, count, rng)
        lines = max(size // 64, 1)
        cycle = int(twin.integers(1, lines + 1))
        others = twin.choice(lines - 1, size=min(cycle, count) - 1, replace=False)
        orbit = [0] + [int(line) + 1 for line in others]
        expected = [0x1000 + 64 * orbit[step % len(orbit)] for step in range(count)]
        assert addresses.dtype == np.uint64
        assert addresses.tolist() == expected
        assert rng.integers(1 << 62) == twin.integers(1 << 62)
        if size == 8 * 64:
            # The cycle closes inside the path, so the pin covers a repeat.
            assert cycle < count and addresses[cycle] == 0x1000

    def test_one_line_variable_stays_inside(self):
        rng = np.random.default_rng(11)
        assert pointer_chase_addresses(0x1000, 64, 5, rng).tolist() == [0x1000] * 5

    def test_matches_the_permutation_walk_in_distribution(self):
        """Over 3,000 seeds on a 6-line buffer, the orbit draw and the
        permutation walk it replaced both give each cycle length (1..6)
        and each first successor of line 0 (0..5) a frequency within
        0.03 of 1/6 (about five standard deviations)."""
        lines, steps, seeds = 6, 8, range(3000)

        def frequencies(walk):
            cycle_lengths = np.zeros(lines)
            successors = np.zeros(lines)
            for seed in seeds:
                path = walk(0, lines * 64, steps, np.random.default_rng(seed)) // 64
                # ``steps`` > ``lines``: every cycle closes inside the path.
                cycle_lengths[path[1:].tolist().index(0)] += 1
                successors[path[1]] += 1
            return cycle_lengths / len(seeds), successors / len(seeds)

        for walk in (pointer_chase_addresses, permutation_walk):
            for observed in frequencies(walk):
                assert np.abs(observed - 1 / lines).max() < 0.03, walk.__name__

    def test_memory_is_bounded_by_the_steps(self):
        """1,000 steps over a 256 MiB buffer (4,194,304 lines) allocate
        far less than one 32 MiB permutation of its lines."""
        rng = np.random.default_rng(17)
        tracemalloc.start()
        try:
            addresses = pointer_chase_addresses(0, 256 << 20, 1000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert addresses.size == 1000
        assert peak < 1 << 20

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
