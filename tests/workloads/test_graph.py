"""Tests for graph generation and the graph workloads."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.graph import (
    BFSWorkload,
    PageRankWorkload,
    SSSPWorkload,
    ragged_ranges,
    rmat_graph,
)


def merge_sort_rmat(scale, edge_factor, seed, a=0.57, b=0.19, c=0.19):
    """The former R-MAT generator: CSR from a stable merge sort by
    source and ``np.add.at`` degree counts."""
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        right = (r >= a) & (r < a + b) | (r >= a + b + c)
        down = r >= a + b
        src |= (down.astype(np.int64)) << bit
        dst |= (right.astype(np.int64)) << bit
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.add.at(xadj, src + 1, 1)
    xadj = np.cumsum(xadj)
    weights = rng.integers(1, 256, m).astype(np.float64)
    return xadj, dst, weights


def bases(workload) -> dict[str, int]:
    base = {}
    cursor = 0x10000000
    for spec in workload.variables():
        base[spec.name] = cursor
        cursor += spec.size_bytes + 4096
    return base


class TestRaggedRanges:
    def test_basic(self):
        out = ragged_ranges(np.array([10, 20]), np.array([3, 2]))
        assert out.tolist() == [10, 11, 12, 20, 21]

    def test_empty(self):
        assert ragged_ranges(np.array([], dtype=int), np.array([], dtype=int)).size == 0

    def test_zero_counts_skipped(self):
        out = ragged_ranges(np.array([5, 9]), np.array([0, 2]))
        assert out.tolist() == [9, 10]


class TestRMAT:
    def test_sizes(self):
        graph = rmat_graph(scale=8, edge_factor=4, seed=0)
        assert graph.num_vertices == 256
        assert graph.num_edges == 1024

    def test_csr_consistency(self):
        graph = rmat_graph(scale=8, edge_factor=4, seed=1)
        assert graph.xadj[0] == 0
        assert graph.xadj[-1] == graph.num_edges
        assert (np.diff(graph.xadj) >= 0).all()
        assert (graph.adjncy < graph.num_vertices).all()

    def test_seeds_differ(self):
        a = rmat_graph(scale=8, edge_factor=4, seed=0)
        b = rmat_graph(scale=8, edge_factor=4, seed=1)
        assert not np.array_equal(a.adjncy, b.adjncy)

    def test_degree_skew(self):
        """R-MAT graphs are skewed: the max degree far exceeds the mean."""
        graph = rmat_graph(scale=10, edge_factor=8, seed=2)
        degrees = np.diff(graph.xadj)
        assert degrees.max() > 4 * degrees.mean()

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            rmat_graph(scale=0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("workload", [BFSWorkload, PageRankWorkload])
    def test_matches_merge_sort_construction(self, workload, seed):
        """The default BFS and PageRank graphs, array for array."""
        w = workload()
        graph = w.graph(seed)
        xadj, adjncy, weights = merge_sort_rmat(w.scale, w.edge_factor, seed)
        assert graph.xadj.dtype == xadj.dtype
        assert np.array_equal(graph.xadj, xadj)
        assert np.array_equal(graph.adjncy, adjncy)
        assert np.array_equal(graph.weights, weights)

    @pytest.mark.parametrize("scale, edge_factor", [(1, 1), (5, 3), (9, 16)])
    def test_small_graphs_match_merge_sort_construction(self, scale, edge_factor):
        graph = rmat_graph(scale, edge_factor, seed=7)
        xadj, adjncy, weights = merge_sort_rmat(scale, edge_factor, 7)
        assert np.array_equal(graph.xadj, xadj)
        assert np.array_equal(graph.adjncy, adjncy)
        assert np.array_equal(graph.weights, weights)


class TestBFS:
    def test_reference_levels_valid(self):
        w = BFSWorkload(scale=8, edge_factor=4)
        levels = w.run_reference()
        root = w._effective_root(w.graph(0))
        assert levels[root] == 0
        reached = levels[levels >= 0]
        assert reached.size > 1
        # Level sets are contiguous: every level from 0..max occurs.
        assert set(range(int(reached.max()) + 1)) <= set(reached.tolist())

    def test_trace_structure(self):
        w = BFSWorkload(scale=8, edge_factor=4, threads=2, max_accesses=2000)
        traces = w.trace(bases(w))
        assert len(traces) == 2
        merged_vars = np.concatenate([t.variable for t in traces])
        assert set(merged_vars.tolist()) <= {0, 1, 2, 3}

    def test_trace_budget_respected(self):
        w = BFSWorkload(scale=8, edge_factor=4, max_accesses=1000)
        total = sum(len(t) for t in w.trace(bases(w)))
        assert total <= 1100


class TestPageRank:
    def test_ranks_sum_to_one(self):
        w = PageRankWorkload(scale=8, edge_factor=4, iterations=3)
        ranks = w.run_reference()
        assert ranks.sum() == pytest.approx(1.0, abs=0.02)
        assert (ranks > 0).all()

    def test_trace_contains_gathers(self):
        w = PageRankWorkload(scale=8, edge_factor=4, max_accesses=2000)
        traces = w.trace(bases(w))
        merged = np.concatenate([t.variable for t in traces])
        assert 2 in merged  # rank_old gathers present


class TestSSSP:
    def test_distances_monotone_improve(self):
        w = SSSPWorkload(scale=8, edge_factor=4, rounds=2)
        d2 = w.run_reference()
        w3 = SSSPWorkload(scale=8, edge_factor=4, rounds=3)
        d3 = w3.run_reference()
        finite2 = np.isfinite(d2)
        assert (d3[finite2] <= d2[finite2]).all()
        assert np.isfinite(d3).sum() >= finite2.sum()

    def test_source_distance_zero(self):
        w = SSSPWorkload(scale=8, edge_factor=4)
        assert w.run_reference()[w.source] == 0.0

    def test_trace_has_writes(self):
        w = SSSPWorkload(scale=8, edge_factor=4, max_accesses=2000)
        traces = w.trace(bases(w))
        assert any(t.is_write.any() for t in traces)
