"""Graph-processing workloads: R-MAT generation, BFS, PageRank, SSSP.

The paper evaluates large-scale graph processing (BFS, PageRank,
single-source shortest path) on Graph500-generated inputs (scale 20,
edge factor 16), using different generator seeds for profiling and
evaluation.  Here the same R-MAT/Kronecker generator is implemented in
numpy, the algorithms actually run (levels, ranks, distances are
computed and testable), and every data-structure touch is emitted as a
tagged address trace: ``xadj`` (offsets), ``adjncy`` (edges),
and the per-vertex state arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.trace import AccessTrace, radix_argsort
from repro.errors import ConfigError
from repro.workloads.base import (
    VariableSpec,
    Workload,
    gather_addresses,
    tagged_trace,
)

__all__ = [
    "CSRGraph",
    "rmat_graph",
    "BFSWorkload",
    "PageRankWorkload",
    "SSSPWorkload",
]


@dataclass(frozen=True)
class CSRGraph:
    """Compressed-sparse-row adjacency."""

    xadj: np.ndarray  # (n+1,) int64 offsets
    adjncy: np.ndarray  # (m,) int64 neighbours
    weights: np.ndarray  # (m,) float64 edge weights

    @property
    def num_vertices(self) -> int:
        """Vertex count."""
        return self.xadj.size - 1

    @property
    def num_edges(self) -> int:
        """Edge count."""
        return self.adjncy.size

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        """Out-degrees of the given vertices."""
        return self.xadj[vertices + 1] - self.xadj[vertices]


def ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Vectorised ``concat(arange(s, s+c) for s, c in zip(starts, counts))``."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    bases = np.repeat(np.asarray(starts, dtype=np.int64), counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return bases + (np.arange(total) - resets)


def rmat_graph(
    scale: int = 12,
    edge_factor: int = 16,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """Graph500-style Kronecker (R-MAT) generator.

    Produces ``2**scale`` vertices and ``edge_factor * 2**scale``
    directed edges with the standard (A,B,C,D) = (.57,.19,.19,.05)
    skew, then builds CSR.  Different seeds give different graphs with
    the same structure — the paper's profiling/evaluation split.
    """
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrant probabilities: (a) TL, (b) TR, (c) BL, (d) BR.
        right = (r >= a) & (r < a + b) | (r >= a + b + c)
        down = r >= a + b
        src |= (down.astype(np.int64)) << bit
        dst |= (right.astype(np.int64)) << bit
    # Permute vertex ids so degree is not correlated with index.
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    # CSR: edges grouped by source in generation order, one offset
    # per vertex from its out-degree.
    dst = dst[radix_argsort(src)]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
    weights = rng.integers(1, 256, m).astype(np.float64)
    return CSRGraph(xadj=xadj, adjncy=dst, weights=weights)


def _subsample(addresses: np.ndarray, limit: int) -> np.ndarray:
    """Uniformly thin an address stream to ``limit`` entries, in order."""
    if addresses.size <= limit:
        return addresses
    keep = np.linspace(0, addresses.size - 1, limit).astype(np.int64)
    return addresses[keep]


class _GraphWorkloadBase(Workload):
    """Shared plumbing: graph storage variables and thread partitioning."""

    compute_intensity = 0.25
    VERTEX_BYTES = 8  # xadj entries, per-vertex state
    EDGE_BYTES = 8

    def __init__(self, scale: int, edge_factor: int, threads: int = 4):
        self.scale = scale
        self.edge_factor = edge_factor
        self.threads = threads
        self._graphs: dict[int, CSRGraph] = {}

    def graph(self, input_seed: int) -> CSRGraph:
        """The (cached) graph for an input seed."""
        if input_seed not in self._graphs:
            self._graphs[input_seed] = rmat_graph(
                self.scale, self.edge_factor, seed=input_seed
            )
        return self._graphs[input_seed]

    def _graph_variables(self) -> list[VariableSpec]:
        n = 1 << self.scale
        m = self.edge_factor * n
        return [
            VariableSpec("xadj", (n + 1) * self.VERTEX_BYTES),
            VariableSpec("adjncy", m * self.EDGE_BYTES),
        ]


class BFSWorkload(_GraphWorkloadBase):
    """Level-synchronous breadth-first search (Graph500 kernel 2)."""

    VERTEX_RECORD_BYTES = 256
    """Per-vertex property record (level, parent, flags, padding) —
    graph frameworks pad vertex state for lock/false-sharing reasons,
    which is exactly the aligned-record pattern SDAM recovers."""

    def __init__(
        self,
        scale: int = 13,
        edge_factor: int = 8,
        threads: int = 4,
        max_accesses: int = 48_000,
        root: int = 0,
    ):
        super().__init__(scale, edge_factor, threads)
        self.name = "bfs"
        self.max_accesses = max_accesses
        self.root = root
        """Preferred root; an isolated root falls back to the highest-
        degree vertex (Graph500 requires roots with outgoing edges)."""

    def _effective_root(self, graph: CSRGraph) -> int:
        if graph.degree(np.array([self.root]))[0] > 0:
            return self.root
        return int(np.argmax(np.diff(graph.xadj)))

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        n = 1 << self.scale
        return self._graph_variables() + [
            VariableSpec("levels", n * self.VERTEX_RECORD_BYTES),
            VariableSpec("frontier", n * self.VERTEX_BYTES),
        ]

    def run_reference(self, input_seed: int = 0) -> np.ndarray:
        """Plain BFS result (levels), for correctness tests."""
        levels, _trace_parts = self._bfs(self.graph(input_seed))
        return levels

    def _bfs(self, graph: CSRGraph):
        n = graph.num_vertices
        root = self._effective_root(graph)
        levels = np.full(n, -1, dtype=np.int64)
        levels[root] = 0
        frontier = np.array([root], dtype=np.int64)
        parts = []  # (xadj_idx, edge_idx, state_idx, next_frontier_len)
        depth = 0
        while frontier.size:
            starts = graph.xadj[frontier]
            counts = graph.degree(frontier)
            edge_positions = ragged_ranges(starts, counts)
            neighbours = graph.adjncy[edge_positions]
            fresh = levels[neighbours] < 0
            new_vertices = np.unique(neighbours[fresh])
            depth += 1
            levels[new_vertices] = depth
            parts.append((frontier, edge_positions, neighbours, new_vertices))
            frontier = new_vertices
        return levels, parts

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """Per-thread VA traces for the given base addresses and input."""
        graph = self.graph(input_seed)
        _levels, parts = self._bfs(graph)
        id_xadj = 0
        id_adjncy = 1
        id_levels = 2
        id_frontier = 3
        xadj_all, edge_all, level_all, frontier_all = [], [], [], []
        for frontier, edge_positions, neighbours, new_vertices in parts:
            xadj_all.append(
                gather_addresses(base["xadj"], self.VERTEX_BYTES, frontier)
            )
            edge_all.append(
                gather_addresses(base["adjncy"], self.EDGE_BYTES, edge_positions)
            )
            level_all.append(
                gather_addresses(
                    base["levels"], self.VERTEX_RECORD_BYTES, neighbours
                )
            )
            frontier_all.append(
                gather_addresses(
                    base["frontier"], self.VERTEX_BYTES,
                    np.arange(new_vertices.size),
                )
            )
        budget = self.max_accesses
        streams = [
            (_subsample(np.concatenate(xadj_all), budget // 8), id_xadj, False),
            (_subsample(np.concatenate(edge_all), budget // 2), id_adjncy, False),
            (_subsample(np.concatenate(level_all), budget // 4), id_levels, True),
            (
                _subsample(np.concatenate(frontier_all), budget // 8),
                id_frontier,
                True,
            ),
        ]
        merged = tagged_trace(streams)
        return _split_threads(merged, self.threads)


class PageRankWorkload(_GraphWorkloadBase):
    """Pull-based PageRank power iteration."""

    RANK_RECORD_BYTES = 256
    """Padded per-vertex record: rank, out-degree, next rank, flags."""

    def __init__(
        self,
        scale: int = 13,
        edge_factor: int = 8,
        threads: int = 4,
        iterations: int = 2,
        max_accesses: int = 48_000,
        damping: float = 0.85,
    ):
        super().__init__(scale, edge_factor, threads)
        self.name = "pagerank"
        self.iterations = iterations
        self.max_accesses = max_accesses
        self.damping = damping

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        n = 1 << self.scale
        return self._graph_variables() + [
            VariableSpec("rank_old", n * self.RANK_RECORD_BYTES),
            VariableSpec("rank_new", n * self.RANK_RECORD_BYTES),
        ]

    def run_reference(self, input_seed: int = 0) -> np.ndarray:
        """Actual ranks after ``iterations`` pull iterations."""
        graph = self.graph(input_seed)
        n = graph.num_vertices
        rank = np.full(n, 1.0 / n)
        degree = graph.xadj[1:] - graph.xadj[:-1]
        src = np.repeat(np.arange(n), degree)
        safe_degree = np.maximum(degree, 1)
        dangling = degree == 0
        for _ in range(self.iterations):
            contribution = rank[src] / safe_degree[src]
            incoming = np.zeros(n)
            np.add.at(incoming, graph.adjncy, contribution)
            # Dangling vertices spread their mass uniformly.
            incoming += rank[dangling].sum() / n
            rank = (1 - self.damping) / n + self.damping * incoming
        return rank

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """Per-thread VA traces for the given base addresses and input."""
        graph = self.graph(input_seed)
        n = graph.num_vertices
        budget = self.max_accesses
        vertex_stream = np.arange(n, dtype=np.int64)
        streams = [
            (
                _subsample(
                    gather_addresses(base["xadj"], self.VERTEX_BYTES, vertex_stream),
                    budget // 8,
                ),
                0,
                False,
            ),
            (
                _subsample(
                    gather_addresses(
                        base["adjncy"],
                        self.EDGE_BYTES,
                        np.arange(graph.num_edges),
                    ),
                    budget * 3 // 8,
                ),
                1,
                False,
            ),
            (
                _subsample(
                    gather_addresses(
                        base["rank_old"], self.RANK_RECORD_BYTES, graph.adjncy
                    ),
                    budget * 3 // 8,
                ),
                2,
                False,
            ),
            (
                _subsample(
                    gather_addresses(
                        base["rank_new"], self.RANK_RECORD_BYTES, vertex_stream
                    ),
                    budget // 8,
                ),
                3,
                True,
            ),
        ]
        merged = tagged_trace(streams)
        return _split_threads(merged, self.threads)


class SSSPWorkload(_GraphWorkloadBase):
    """Bellman-Ford-style single-source shortest path rounds."""

    DIST_RECORD_BYTES = 128
    """Padded per-vertex record: distance, predecessor, bucket links."""

    def __init__(
        self,
        scale: int = 13,
        edge_factor: int = 8,
        threads: int = 4,
        rounds: int = 3,
        max_accesses: int = 48_000,
        source: int = 0,
    ):
        super().__init__(scale, edge_factor, threads)
        self.name = "sssp"
        self.rounds = rounds
        self.max_accesses = max_accesses
        self.source = source

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        n = 1 << self.scale
        m = self.edge_factor * n
        return self._graph_variables() + [
            VariableSpec("edge_weights", m * 8),
            VariableSpec("distance", n * self.DIST_RECORD_BYTES),
        ]

    def run_reference(self, input_seed: int = 0) -> np.ndarray:
        """Run the real computation; returns the checkable result."""
        graph = self.graph(input_seed)
        n = graph.num_vertices
        src = np.repeat(np.arange(n), graph.xadj[1:] - graph.xadj[:-1])
        distance = np.full(n, np.inf)
        distance[self.source] = 0.0
        for _ in range(self.rounds):
            candidate = distance[src] + graph.weights
            np.minimum.at(distance, graph.adjncy, candidate)
        return distance

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """Per-thread VA traces for the given base addresses and input."""
        graph = self.graph(input_seed)
        n = graph.num_vertices
        m = graph.num_edges
        budget = self.max_accesses
        src = np.repeat(np.arange(n), graph.xadj[1:] - graph.xadj[:-1])
        edge_stream = np.arange(m)
        per_round = max(budget // (4 * self.rounds), 64)
        streams = []
        for _round in range(self.rounds):
            streams.extend(
                [
                    (
                        _subsample(
                            gather_addresses(
                                base["adjncy"], self.EDGE_BYTES, edge_stream
                            ),
                            per_round,
                        ),
                        1,
                        False,
                    ),
                    (
                        _subsample(
                            gather_addresses(base["edge_weights"], 8, edge_stream),
                            per_round,
                        ),
                        2,
                        False,
                    ),
                    (
                        _subsample(
                            gather_addresses(
                                base["distance"], self.DIST_RECORD_BYTES, src
                            ),
                            per_round
                        ),
                        3,
                        False,
                    ),
                    (
                        _subsample(
                            gather_addresses(
                                base["distance"],
                                self.DIST_RECORD_BYTES,
                                graph.adjncy,
                            ),
                            per_round,
                        ),
                        3,
                        True,
                    ),
                ]
            )
        merged = tagged_trace(streams)
        return _split_threads(merged, self.threads)


def _split_threads(trace: AccessTrace, threads: int) -> list[AccessTrace]:
    """Deal a merged trace across threads round-robin.

    Access ``i`` goes to thread ``i % threads``: a static deal, so each
    thread's trace is a strided view of the merged one, not a copy.
    """
    if threads <= 1:
        return [trace]
    return [
        AccessTrace(
            va=trace.va[t::threads],
            is_write=trace.is_write[t::threads],
            variable=trace.variable[t::threads],
        )
        for t in range(threads)
    ]
