"""Workload protocol and access-pattern building blocks.

A workload declares its *variables* (allocation sites with sizes) and,
given the base address malloc returned for each, emits per-thread
virtual-address traces tagged with the generating variable — the same
(variable -> address stream) information the prototype recovers with
gcc's PC table and call-stack matching.

The pattern helpers below are the vocabulary every workload model is
built from: streams, strides, gathers, hotspots and pointer chases.
All return cache-line-aligned ``uint64`` VA arrays.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.cpu.trace import AccessTrace
from repro.errors import SimulationError

__all__ = [
    "VariableSpec",
    "Workload",
    "stable_name_seed",
    "strided_addresses",
    "random_addresses",
    "gather_addresses",
    "hotspot_addresses",
    "pointer_chase_addresses",
    "record_addresses",
    "tagged_trace",
]

LINE = 64


def stable_name_seed(name: str) -> int:
    """A 16-bit seed derived from a name, stable across processes.

    ``hash(str)`` is randomised per interpreter (PYTHONHASHSEED), so
    trace generators must not derive RNG seeds from it: a worker
    process would generate a different "same" workload than its
    parent, and a seeded run would not repeat across processes.
    """
    return zlib.crc32(name.encode()) & 0xFFFF


@dataclass(frozen=True)
class VariableSpec:
    """One allocation site: its name and allocated size."""

    name: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise SimulationError(f"variable {self.name!r} has no size")


class Workload(ABC):
    """A program model: variables + a trace generator."""

    name: str = "workload"
    threads: int = 1
    compute_intensity: float = 1.0
    """Relative CPU work per program access.  Data-intensive kernels do
    almost nothing per touched byte (compare/add/swap), so their end-to-
    end time is dominated by memory — the property Section 7.4 credits
    for their larger speedups."""

    @abstractmethod
    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in a stable order (index = variable id)."""

    @abstractmethod
    def trace(
        self, base: dict[str, int], input_seed: int = 0
    ) -> list[AccessTrace]:
        """Per-thread VA traces given each variable's base address.

        ``input_seed`` selects the program input (profiling vs
        evaluation runs use different seeds, Section 7.3).
        """

    # -- content keying ------------------------------------------------------
    def spec_dict(self) -> dict:
        """A stable description of this instance for content hashing.

        The default walks the public instance attributes (the
        constructor parameters every workload stores); private
        attributes — lazily built caches like generated graphs — are
        skipped because they are derived from the public spec.
        Workloads with non-parameter public state should override this.
        """
        from repro.core.keys import canonical

        spec: dict = {"__workload__": type(self).__name__}
        for key in sorted(vars(self)):
            if key.startswith("_"):
                continue
            spec[key] = canonical(getattr(self, key))
        return spec

    # -- conveniences --------------------------------------------------------
    def variable_id(self, name: str) -> int:
        """Index of a variable by name."""
        for index, spec in enumerate(self.variables()):
            if spec.name == name:
                return index
        raise SimulationError(f"{self.name} has no variable {name!r}")

    def total_footprint(self) -> int:
        """Sum of all variables' sizes in bytes."""
        return sum(spec.size_bytes for spec in self.variables())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, threads={self.threads})"


# ---------------------------------------------------------------------------
# Pattern helpers
# ---------------------------------------------------------------------------

def _wrap(offsets: np.ndarray, size: int) -> np.ndarray:
    return offsets % np.uint64(max(size, LINE))


def strided_addresses(
    base: int,
    size: int,
    count: int,
    stride_lines: int = 1,
    start_line: int = 0,
) -> np.ndarray:
    """Constant-stride accesses, wrapping at the variable's end."""
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    index = np.arange(count, dtype=np.uint64) + np.uint64(start_line)
    offsets = _wrap(index * np.uint64(stride_lines * LINE), size)
    return np.uint64(base) + offsets


def random_addresses(
    base: int, size: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random line-aligned accesses."""
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    lines = max(size // LINE, 1)
    offsets = rng.integers(0, lines, count, dtype=np.uint64) * np.uint64(LINE)
    return np.uint64(base) + offsets


def gather_addresses(base: int, element_bytes: int, indices: np.ndarray) -> np.ndarray:
    """Indexed accesses: ``base + indices * element_bytes`` (e.g. rank[v])."""
    indices = np.asarray(indices, dtype=np.uint64)
    return np.uint64(base) + indices * np.uint64(element_bytes)


def hotspot_addresses(
    base: int,
    size: int,
    count: int,
    rng: np.random.Generator,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.9,
) -> np.ndarray:
    """Skewed accesses: most hits land in a small hot region."""
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    lines = max(size // LINE, 1)
    hot_lines = max(int(lines * hot_fraction), 1)
    in_hot = rng.random(count) < hot_probability
    offsets = np.where(
        in_hot,
        rng.integers(0, hot_lines, count, dtype=np.uint64),
        rng.integers(0, lines, count, dtype=np.uint64),
    )
    return np.uint64(base) + offsets * np.uint64(LINE)


def record_addresses(
    base: int,
    size: int,
    count: int,
    rng: np.random.Generator,
    record_lines: int = 4,
    lines_read: int = 1,
) -> np.ndarray:
    """Random accesses to the headers of aligned power-of-two records.

    The pattern behind many data-intensive structures: padded vertex
    records, hash buckets, quantised vectors.  Because records are
    ``record_lines``-aligned and usually only the header (first
    ``lines_read`` lines) is touched, the low channel-select bits are
    constant — under a boot-time channel-interleaved mapping only
    ``1/record_lines`` of the channels ever see traffic.  This is the
    access class SDAM recovers the most bandwidth from.
    """
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    records = max(size // (record_lines * LINE), 1)
    picks = rng.integers(0, records, -(-count // lines_read), dtype=np.uint64)
    starts = picks * np.uint64(record_lines * LINE)
    if lines_read == 1:
        return (np.uint64(base) + starts)[:count]
    offsets = np.arange(lines_read, dtype=np.uint64) * np.uint64(LINE)
    addresses = (starts[:, None] + offsets[None, :]).reshape(-1)
    return (np.uint64(base) + addresses)[:count]


def pointer_chase_addresses(
    base: int, size: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """A dependent chain through a random permutation of the lines.

    The chain starts at line 0 and follows the permutation, so it walks
    the cycle through line 0 over and over.  Under a uniform random
    permutation of ``n`` lines that cycle's length is uniform on
    ``1..n``, and given its length ``L`` the lines after line 0 are an
    ordered sample of ``L - 1`` distinct other lines.  So the chain is
    drawn directly: ``L``, then the first ``min(L, count) - 1`` of those
    lines, repeated to ``count`` steps.  Work and memory are O(count),
    not O(lines).
    """
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    lines = max(size // LINE, 1)
    cycle = int(rng.integers(1, lines + 1))
    others = rng.choice(lines - 1, size=min(cycle, count) - 1, replace=False) + 1
    path = np.resize(np.concatenate(([0], others)).astype(np.uint64), count)
    return np.uint64(base) + path * np.uint64(LINE)


def tagged_trace(
    streams: list[tuple[np.ndarray, int, bool]],
    interleave: bool = True,
) -> AccessTrace:
    """Combine ``(addresses, variable_id, is_write)`` streams into a trace.

    ``interleave=True`` merges the streams in proportional round-robin
    order (the usual picture of a loop touching several structures per
    iteration); otherwise they are concatenated phase-by-phase.
    """
    streams = [(a, v, w) for a, v, w in streams if len(a)]
    if not streams:
        return AccessTrace(va=np.zeros(0, dtype=np.uint64))
    va_parts = [np.asarray(a, dtype=np.uint64) for a, _v, _w in streams]
    var_parts = [np.full(len(a), v, dtype=np.int64) for a, v, _w in streams]
    wr_parts = [np.full(len(a), w, dtype=bool) for a, _v, w in streams]
    if not interleave or len(streams) == 1:
        return AccessTrace(
            va=np.concatenate(va_parts),
            is_write=np.concatenate(wr_parts),
            variable=np.concatenate(var_parts),
        )
    total = sum(len(a) for a in va_parts)
    # Proportional interleave: position each stream's k-th access at
    # fractional rank k/len, then sort by rank (stable).
    ranks = np.concatenate(
        [
            (np.arange(len(a), dtype=np.float64) + 0.5) / len(a)
            for a in va_parts
        ]
    )
    order = np.argsort(ranks, kind="stable")
    va = np.concatenate(va_parts)[order]
    variable = np.concatenate(var_parts)[order]
    is_write = np.concatenate(wr_parts)[order]
    assert va.size == total
    return AccessTrace(va=va, is_write=is_write, variable=variable)
