"""Near-memory accelerator model.

Section 7.4 attributes the larger accelerator speedups (2.58x) to two
properties: (i) deep pipelines generate far more concurrent memory
accesses than a CPU, and (ii) small (or absent) on-chip buffers mean a
much larger fraction of accesses reaches external memory.  Both are
first-class knobs here: a high in-flight window and an optional tiny
scratch cache.
"""

from __future__ import annotations

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.cpu import ExternalTraceResult
from repro.cpu.trace import AccessTrace, interleave_traces
from repro.errors import ConfigError

__all__ = ["AcceleratorModel"]

KiB = 1024


class AcceleratorModel:
    """A streaming accelerator: huge MLP, tiny cache."""

    def __init__(
        self,
        lanes: int = 16,
        mlp_per_lane: int = 16,
        scratch_bytes: int = 8 * KiB,
        line_bytes: int = 64,
    ):
        if lanes < 1:
            raise ConfigError("need at least one lane")
        if mlp_per_lane < 1:
            raise ConfigError("need at least one in-flight access per lane")
        if scratch_bytes < 0:
            raise ConfigError("scratch size must be >= 0 (0: no scratch)")
        if scratch_bytes:
            # Reject a bad scratch geometry now, not on the first trace.
            SetAssociativeCache(scratch_bytes, line_bytes, ways=4)
        self.lanes = lanes
        self.mlp_per_lane = mlp_per_lane
        self.scratch_bytes = scratch_bytes
        self.line_bytes = line_bytes

    @property
    def max_inflight(self) -> int:
        """Memory-level parallelism handed to the memory model."""
        return self.lanes * self.mlp_per_lane

    def external_trace(
        self, thread_traces: list[AccessTrace]
    ) -> ExternalTraceResult:
        """Nearly everything reaches memory; only a tiny scratch filters."""
        program_accesses = sum(len(t) for t in thread_traces)
        merged = interleave_traces(
            [t.aligned(self.line_bytes) for t in thread_traces], chunk=1
        )
        if self.scratch_bytes == 0:
            # A lone thread passes through ``interleave_traces`` and
            # ``aligned`` with the caller's write flags and variables:
            # copy them, so the stream shares no memory with its input.
            return ExternalTraceResult(
                trace=AccessTrace(
                    va=merged.va,
                    is_write=merged.is_write.copy(),
                    variable=merged.variable.copy(),
                ),
                l1_hit_rate=0.0,
                llc_hit_rate=0.0,
                program_accesses=program_accesses,
            )
        scratch = SetAssociativeCache(
            self.scratch_bytes, self.line_bytes, ways=4
        )
        external = scratch.filter_trace(merged)
        return ExternalTraceResult(
            trace=external,
            l1_hit_rate=scratch.stats.hit_rate,
            llc_hit_rate=0.0,
            program_accesses=program_accesses,
        )

    def __repr__(self) -> str:
        return (
            f"AcceleratorModel(lanes={self.lanes}, "
            f"inflight={self.max_inflight}, "
            f"scratch={self.scratch_bytes // KiB}KiB)"
        )
