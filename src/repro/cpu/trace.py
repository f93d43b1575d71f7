"""Memory-access traces: struct-of-arrays containers and combinators.

A trace is the ordered stream of (virtual address, is_write, variable id)
triples a program or accelerator emits.  The variable id stands in for
the paper's PC-to-variable table (Section 6.2): the workload models tag
every access with the variable that generated it, exactly the
information gcc + call-stack matching recovers on the prototype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

__all__ = ["AccessTrace", "interleave_traces", "concat_traces"]

NO_VARIABLE = -1


@dataclass(frozen=True)
class AccessTrace:
    """An ordered memory-access stream (struct of arrays)."""

    va: np.ndarray
    is_write: np.ndarray = field(default=None)  # type: ignore[assignment]
    variable: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        va = np.asarray(self.va, dtype=np.uint64)
        object.__setattr__(self, "va", va)
        if self.is_write is None:
            object.__setattr__(self, "is_write", np.zeros(va.size, dtype=bool))
        else:
            is_write = np.asarray(self.is_write, dtype=bool)
            if is_write.size != va.size:
                raise SimulationError("is_write length mismatch")
            object.__setattr__(self, "is_write", is_write)
        if self.variable is None:
            object.__setattr__(
                self, "variable", np.full(va.size, NO_VARIABLE, dtype=np.int64)
            )
        else:
            variable = np.asarray(self.variable, dtype=np.int64)
            if variable.size != va.size:
                raise SimulationError("variable length mismatch")
            object.__setattr__(self, "variable", variable)

    def __len__(self) -> int:
        return self.va.size

    def select(self, mask: np.ndarray) -> "AccessTrace":
        """Subset of the trace (order preserved)."""
        return AccessTrace(
            va=self.va[mask],
            is_write=self.is_write[mask],
            variable=self.variable[mask],
        )

    def take(self, count: int) -> "AccessTrace":
        """Trace prefix."""
        return AccessTrace(
            va=self.va[:count],
            is_write=self.is_write[:count],
            variable=self.variable[:count],
        )

    def aligned(self, line_bytes: int = 64) -> "AccessTrace":
        """Cache-line-aligned copy of the trace."""
        mask = np.uint64(~(line_bytes - 1) & 0xFFFF_FFFF_FFFF_FFFF)
        return AccessTrace(
            va=self.va & mask, is_write=self.is_write, variable=self.variable
        )

    def variables_present(self) -> np.ndarray:
        """Sorted unique variable ids in the trace (excluding untagged)."""
        unique = np.unique(self.variable)
        return unique[unique != NO_VARIABLE]


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of integer keys, 16 bits per pass.

    NumPy's stable sort is a radix sort for 8- and 16-bit keys but a
    merge sort for wider ones; least-significant-digit passes over the
    keys' offsets from their minimum keep the speed of the former at
    any width.  Offsets below 256 (bank ids, cache sets) take one
    8-bit pass, which counts into 256 buckets instead of 65,536.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.zeros(0, dtype=np.intp)
    keys = keys - keys.min()
    top = int(keys.max())
    if top < 256:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digit = ((keys >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def concat_traces(traces: list[AccessTrace]) -> AccessTrace:
    """Append traces back to back."""
    if not traces:
        return AccessTrace(va=np.zeros(0, dtype=np.uint64))
    if len(traces) == 1:
        return traces[0]
    return AccessTrace(
        va=np.concatenate([t.va for t in traces]),
        is_write=np.concatenate([t.is_write for t in traces]),
        variable=np.concatenate([t.variable for t in traces]),
    )


def interleave_traces(traces: list[AccessTrace], chunk: int = 1) -> AccessTrace:
    """Round-robin interleave per-thread traces into one stream.

    ``chunk`` accesses are taken from each thread in turn — the paper's
    four-thread data copy (Fig. 11) interleaves at fine grain.  Threads
    that run out simply drop out of the rotation.
    """
    if chunk < 1:
        raise SimulationError("interleave chunk must be >= 1")
    if not traces:
        return AccessTrace(va=np.zeros(0, dtype=np.uint64))
    if len(traces) == 1:
        return traces[0]
    total = sum(map(len, traces))
    merged = {
        "va": np.empty(total, dtype=np.uint64),
        "is_write": np.empty(total, dtype=bool),
        "variable": np.empty(total, dtype=np.int64),
    }
    live, start, out = list(traces), 0, 0
    while live:
        # The rounds in which every live thread has ``chunk`` accesses
        # left form a (round, thread, chunk) block of the output.
        rounds = (min(map(len, live)) - start) // chunk
        stop = start + rounds * chunk
        size = len(live) * (stop - start)
        for name, column in merged.items():
            block = column[out : out + size].reshape(rounds, len(live), chunk)
            for index, trace in enumerate(live):
                block[:, index] = getattr(trace, name)[start:stop].reshape(
                    rounds, chunk
                )
        out += size
        # The next round is ragged: the shortest live thread ends in it.
        for trace in live:
            end = min(len(trace), stop + chunk)
            for name, column in merged.items():
                column[out : out + end - stop] = getattr(trace, name)[stop:end]
            out += end - stop
        start = stop + chunk
        live = [trace for trace in live if len(trace) > start]
    return AccessTrace(**merged)
