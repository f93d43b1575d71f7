"""Synthetic strided-copy workloads (Section 7.2, Figs. 3, 4, 11).

The paper's synthetic benchmark copies 64 B elements with a configurable
stride; the four-thread variant with mixed strides drives Fig. 4 and
Fig. 11.  Each distinct stride gets its own source/destination variable
pair so SDAM can give every stream its own mapping.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import AccessTrace
from repro.errors import SimulationError
from repro.workloads.base import (
    LINE,
    VariableSpec,
    Workload,
    hotspot_addresses,
    pointer_chase_addresses,
    record_addresses,
    stable_name_seed,
    strided_addresses,
    tagged_trace,
)

__all__ = [
    "StridedCopyWorkload",
    "MixedStrideWorkload",
    "PhaseShiftWorkload",
    "TieredPressureWorkload",
]


class StridedCopyWorkload(Workload):
    """N threads copying data with one constant stride."""

    def __init__(
        self,
        stride_lines: int = 1,
        threads: int = 4,
        accesses_per_thread: int = 8192,
        buffer_bytes: int = 8 * 1024 * 1024,
    ):
        self.name = f"copy-stride{stride_lines}"
        self.stride_lines = stride_lines
        self.threads = threads
        self.accesses_per_thread = accesses_per_thread
        self.buffer_bytes = buffer_bytes

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        return [
            VariableSpec("src", self.buffer_bytes),
            VariableSpec("dst", self.buffer_bytes),
        ]

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """Per-thread VA traces for the given base addresses and input."""
        traces = []
        per_thread = self.accesses_per_thread // 2
        for thread in range(self.threads):
            # Threads partition the buffer; the seed shifts the phase.
            start = thread * per_thread * self.stride_lines + input_seed * 17
            reads = strided_addresses(
                base["src"],
                self.buffer_bytes,
                per_thread,
                self.stride_lines,
                start_line=start,
            )
            writes = strided_addresses(
                base["dst"],
                self.buffer_bytes,
                per_thread,
                self.stride_lines,
                start_line=start,
            )
            traces.append(
                tagged_trace([(reads, 0, False), (writes, 1, True)])
            )
        return traces


class MixedStrideWorkload(Workload):
    """Concurrent copies with different strides (Fig. 4 / Fig. 11a).

    One thread (and one src/dst variable pair) per stride, so the trace
    mixes up to four distinct access patterns.
    """

    def __init__(
        self,
        strides: tuple[int, ...] = (1, 4, 8, 16),
        accesses_per_stride: int = 8192,
        buffer_bytes: int = 8 * 1024 * 1024,
    ):
        if not strides:
            raise ValueError("need at least one stride")
        self.name = "copy-mixed-" + "x".join(str(s) for s in strides)
        self.strides = tuple(strides)
        self.threads = len(strides)
        self.accesses_per_stride = accesses_per_stride
        self.buffer_bytes = buffer_bytes

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        specs = []
        for stride in self.strides:
            specs.append(VariableSpec(f"src_s{stride}", self.buffer_bytes))
            specs.append(VariableSpec(f"dst_s{stride}", self.buffer_bytes))
        return specs

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """Per-thread VA traces for the given base addresses and input."""
        traces = []
        per_stream = self.accesses_per_stride // 2
        for index, stride in enumerate(self.strides):
            start = input_seed * 23
            reads = strided_addresses(
                base[f"src_s{stride}"],
                self.buffer_bytes,
                per_stream,
                stride,
                start_line=start,
            )
            writes = strided_addresses(
                base[f"dst_s{stride}"],
                self.buffer_bytes,
                per_stream,
                stride,
                start_line=start,
            )
            traces.append(
                tagged_trace(
                    [(reads, 2 * index, False), (writes, 2 * index + 1, True)]
                )
            )
        return traces


class PhaseShiftWorkload(Workload):
    """One buffer, one thread, four access-pattern phases in sequence.

    The adversary for *static* mapping selection: each phase's
    per-window varying-bit set conflicts with another phase's, so no
    single window permutation serves the whole run well —

    ``stream``
        stride-1 sweep; the low chunk-offset bits flip fastest, so the
        boot channel-interleaved mapping is already right.
    ``chase``
        a dependent pointer chase over the whole buffer; every offset
        bit flips, any permutation balances, nothing to gain.
    ``tiled``
        random record headers on ``tile_lines``-aligned boundaries; the
        low offset bits are *constant*, so a low-bit channel mapping
        serializes onto one channel and the mapping must move up.
    ``sweep``
        dwelling tile-local accesses (one ``tile_lines`` tile per
        ``dwell`` accesses, tiles advancing sequentially); now only the
        low bits vary per window and the ``tiled`` mapping serializes —
        the mapping must move back down.

    Phases are concatenated (not interleaved): the trace is a time
    series with genuine phase boundaries, the input the online
    controller exists for.
    """

    def __init__(
        self,
        buffer_bytes: int = 4 * 1024 * 1024,
        accesses_per_phase: int = 49152,
        tile_lines: int = 32,
        dwell: int = 2048,
        phases: tuple[str, ...] = ("stream", "chase", "tiled", "sweep"),
    ):
        if buffer_bytes < tile_lines * LINE:
            raise SimulationError("buffer smaller than one tile")
        self.name = "phase-shift"
        self.buffer_bytes = buffer_bytes
        self.accesses_per_phase = accesses_per_phase
        self.tile_lines = tile_lines
        self.dwell = dwell
        self.phases = tuple(phases)

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        return [VariableSpec("data", self.buffer_bytes)]

    def _sweep(self, base: int, count: int, start_tile: int) -> np.ndarray:
        """Dwell on one tile for ``dwell`` accesses, then advance."""
        index = np.arange(count, dtype=np.uint64)
        tiles = max(self.buffer_bytes // (self.tile_lines * LINE), 1)
        tile = (index // np.uint64(self.dwell) + np.uint64(start_tile)) % (
            np.uint64(tiles)
        )
        within = index % np.uint64(self.tile_lines)
        lines = tile * np.uint64(self.tile_lines) + within
        return np.uint64(base) + lines * np.uint64(LINE)

    def _phase(
        self, phase: str, base: int, rng: np.random.Generator, input_seed: int
    ) -> np.ndarray:
        count = self.accesses_per_phase
        if phase == "stream":
            return strided_addresses(
                base, self.buffer_bytes, count, 1, start_line=input_seed * 17
            )
        if phase == "chase":
            return pointer_chase_addresses(base, self.buffer_bytes, count, rng)
        if phase == "tiled":
            return record_addresses(
                base,
                self.buffer_bytes,
                count,
                rng,
                record_lines=self.tile_lines,
                lines_read=1,
            )
        if phase == "sweep":
            return self._sweep(base, count, start_tile=input_seed % 7)
        raise SimulationError(f"unknown phase {phase!r}")

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """One thread's VA trace: the phases back to back."""
        rng = np.random.default_rng(
            stable_name_seed(self.name) * 65536 + input_seed
        )
        streams = [
            (self._phase(phase, base["data"], rng, input_seed), 0, False)
            for phase in self.phases
        ]
        return [tagged_trace(streams, interleave=False)]


class TieredPressureWorkload(Workload):
    """Capacity pressure with a tunable hot/cold skew (tiered memory).

    One arena larger than the fast tier; ``hot_fraction`` of the
    accesses land in a small hot region (``hot_bytes``), the rest are
    uniform over the whole arena.  ``hot_fraction=0.9`` is the
    hot/cold-skew scenario a placement policy should win (keep the hot
    region fast); ``hot_fraction=0.0`` degenerates to pure capacity
    pressure (uniform traffic over an oversized footprint), where the
    right move is to *not* thrash.

    ``cold_start`` prepends one reverse-order per-page sweep of the
    arena (an initialisation pass, tail first).  First-touch placement
    then captures the *end* of the arena, not the hot region at its
    front — so a policy must actively promote the hot set to win, and
    first-touch alone is no longer enough.
    """

    PAGE = 4096

    def __init__(
        self,
        footprint_bytes: int = 4 * 1024 * 1024,
        hot_bytes: int | None = None,
        hot_fraction: float = 0.9,
        accesses: int = 32768,
        cold_start: bool = True,
    ):
        if footprint_bytes < LINE:
            raise SimulationError("footprint smaller than a cache line")
        if not 0.0 <= hot_fraction <= 1.0:
            raise SimulationError("hot_fraction must be in [0, 1]")
        if hot_bytes is None:
            hot_bytes = max(footprint_bytes // 8, LINE)
        if hot_bytes > footprint_bytes:
            raise SimulationError("hot region larger than the footprint")
        self.name = f"tiered-pressure-h{int(round(hot_fraction * 100))}"
        self.footprint_bytes = footprint_bytes
        self.hot_bytes = hot_bytes
        self.hot_fraction = hot_fraction
        self.accesses = accesses
        self.cold_start = cold_start

    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        return [VariableSpec("arena", self.footprint_bytes)]

    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """One thread's skewed VA trace over the arena."""
        rng = np.random.default_rng(
            stable_name_seed(self.name) * 65536 + input_seed
        )
        addresses = hotspot_addresses(
            base["arena"],
            self.footprint_bytes,
            self.accesses,
            rng,
            hot_fraction=self.hot_bytes / self.footprint_bytes,
            hot_probability=self.hot_fraction,
        )
        if self.cold_start and self.footprint_bytes >= self.PAGE:
            pages = self.footprint_bytes // self.PAGE
            sweep = np.uint64(base["arena"]) + np.arange(
                pages - 1, -1, -1, dtype=np.uint64
            ) * np.uint64(self.PAGE)
            addresses = np.concatenate([sweep, addresses])
        return [tagged_trace([(addresses, 0, False)])]


# Re-export for symmetry with other workload modules.
SyntheticWorkloads = {
    "stride": StridedCopyWorkload,
    "mixed": MixedStrideWorkload,
    "phase-shift": PhaseShiftWorkload,
    "tiered-pressure": TieredPressureWorkload,
}
