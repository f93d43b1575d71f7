"""CPU model: per-core L1 caches over a shared LLC.

Mirrors the prototype's 4-core BOOM with 64 KB L1s (Section 7.1): each
thread's accesses filter through a private L1, the miss streams
interleave into a shared last-level cache, and LLC misses (plus
write-backs) form the external memory trace handed to the memory
controller.  ``max_inflight`` is the memory-level parallelism the core
complex can sustain — the window the HBM models consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.trace import AccessTrace, interleave_traces
from repro.errors import ConfigError

__all__ = ["CPUModel", "ExternalTraceResult"]

KiB = 1024


@dataclass(frozen=True)
class ExternalTraceResult:
    """External memory stream plus the cache behaviour that produced it."""

    trace: AccessTrace
    l1_hit_rate: float
    llc_hit_rate: float
    program_accesses: int

    @property
    def miss_fraction(self) -> float:
        """External accesses per program access."""
        if self.program_accesses == 0:
            return 0.0
        return len(self.trace) / self.program_accesses


class CPUModel:
    """A small multicore: private L1s, shared LLC, bounded MLP."""

    def __init__(
        self,
        cores: int = 4,
        l1_bytes: int = 64 * KiB,
        llc_bytes: int = 1024 * KiB,
        line_bytes: int = 64,
        mlp_per_core: int = 16,
    ):
        if cores < 1:
            raise ConfigError("need at least one core")
        if mlp_per_core < 1:
            raise ConfigError("need at least one in-flight access per core")
        # Reject a bad cache geometry now, not on the first trace.
        SetAssociativeCache(l1_bytes, line_bytes)
        SetAssociativeCache(llc_bytes, line_bytes, ways=16)
        self.cores = cores
        self.l1_bytes = l1_bytes
        self.llc_bytes = llc_bytes
        self.line_bytes = line_bytes
        self.mlp_per_core = mlp_per_core

    @property
    def max_inflight(self) -> int:
        """MLP handed to the memory model."""
        return self.cores * self.mlp_per_core

    def external_trace(
        self, thread_traces: list[AccessTrace]
    ) -> ExternalTraceResult:
        """Filter per-thread program traces into the external stream.

        Threads beyond ``cores`` are round-robined onto cores (as the
        OS scheduler would), sharing that core's L1.
        """
        program_accesses = sum(len(t) for t in thread_traces)
        # Only cores with a thread get an L1: an idle one sees nothing.
        l1s = [
            SetAssociativeCache(self.l1_bytes, self.line_bytes)
            for _ in range(min(self.cores, len(thread_traces)))
        ]
        # A core runs its threads one after another, its L1 warm between.
        per_core = [
            l1.filter_traces(
                [t.aligned(self.line_bytes) for t in thread_traces[core :: self.cores]]
            )
            for core, l1 in enumerate(l1s)
        ]
        l1_streams = [
            per_core[index % self.cores][index // self.cores]
            for index in range(len(thread_traces))
        ]
        merged = interleave_traces(l1_streams, chunk=4)
        llc = SetAssociativeCache(self.llc_bytes, self.line_bytes, ways=16)
        external = llc.filter_trace(merged)
        l1_accesses = sum(c.stats.accesses for c in l1s)
        l1_hits = sum(c.stats.hits for c in l1s)
        return ExternalTraceResult(
            trace=external,
            l1_hit_rate=l1_hits / l1_accesses if l1_accesses else 0.0,
            llc_hit_rate=llc.stats.hit_rate,
            program_accesses=program_accesses,
        )

    def __repr__(self) -> str:
        return (
            f"CPUModel(cores={self.cores}, l1={self.l1_bytes // KiB}KiB, "
            f"llc={self.llc_bytes // KiB}KiB)"
        )
