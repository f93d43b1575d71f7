"""Reference models for the differential tests of ``repro.cpu``.

``DictLRU`` is the per-access set-associative write-back LRU cache the
package used before the filter was decided offline: one dict per set,
one Python step per access.  ``interleave_loop`` is the chunk-by-chunk
round-robin loop ``interleave_traces`` replaced, and ``interleave_sort``
the one stable sort on (round, thread) that replaced it in turn, before
the rotation was laid out in whole blocks.  ``split_masks`` is the
mask-and-copy round-robin deal the workloads used before they returned
strided views.  All are kept here, outside the package, as oracles: the
package's vectorised versions must produce bit-identical streams.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.cache import CacheStats
from repro.cpu.trace import AccessTrace, concat_traces, radix_argsort
from repro.errors import SimulationError


class DictLRU:
    """LRU set-associative write-back, write-allocate cache, per access."""

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.line_bits = line_bytes.bit_length() - 1
        # sets[set_index] = {tag: [lru_stamp, dirty]}
        self._sets: list[dict[int, list]] = [{} for _ in range(self.num_sets)]
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> tuple[bool, int | None]:
        """One access; returns ``(hit, writeback_address_or_None)``."""
        line = address >> self.line_bits
        set_index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[set_index]
        self._clock += 1
        self.stats.accesses += 1
        entry = ways.get(tag)
        if entry is not None:
            entry[0] = self._clock
            entry[1] = entry[1] or is_write
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim_tag = min(ways, key=lambda t: ways[t][0])
            victim = ways.pop(victim_tag)
            if victim[1]:
                victim_line = victim_tag * self.num_sets + set_index
                writeback = victim_line << self.line_bits
                self.stats.writebacks += 1
        ways[tag] = [self._clock, is_write]
        return False, writeback

    def filter_trace(self, trace: AccessTrace) -> AccessTrace:
        """Run a trace through the (warm) cache; return the external stream.

        A write-back is emitted just before the miss that evicts it and
        carries the evicting access's variable.
        """
        out_va: list[int] = []
        out_write: list[bool] = []
        out_variable: list[int] = []
        for address, write, var in zip(
            trace.va.tolist(), trace.is_write.tolist(), trace.variable.tolist()
        ):
            hit, writeback = self.access(address, write)
            if writeback is not None:
                out_va.append(writeback)
                out_write.append(True)
                out_variable.append(var)
            if not hit:
                out_va.append(address)
                out_write.append(write)
                out_variable.append(var)
        return AccessTrace(
            va=np.array(out_va, dtype=np.uint64),
            is_write=np.array(out_write, dtype=bool),
            variable=np.array(out_variable, dtype=np.int64),
        )


def interleave_loop(traces: list[AccessTrace], chunk: int = 1) -> AccessTrace:
    """Round-robin ``chunk`` accesses from each thread in turn."""
    if not traces:
        return AccessTrace(va=np.zeros(0, dtype=np.uint64))
    total = sum(len(t) for t in traces)
    va = np.empty(total, dtype=np.uint64)
    is_write = np.empty(total, dtype=bool)
    variable = np.empty(total, dtype=np.int64)
    cursors = [0] * len(traces)
    out = 0
    while out < total:
        for index, trace in enumerate(traces):
            start = cursors[index]
            if start >= len(trace):
                continue
            stop = min(start + chunk, len(trace))
            span = stop - start
            va[out : out + span] = trace.va[start:stop]
            is_write[out : out + span] = trace.is_write[start:stop]
            variable[out : out + span] = trace.variable[start:stop]
            cursors[index] = stop
            out += span
    return AccessTrace(va=va, is_write=is_write, variable=variable)


def interleave_sort(traces: list[AccessTrace], chunk: int = 1) -> AccessTrace:
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
    lengths = [len(t) for t in traces]
    thread = np.repeat(np.arange(len(traces)), lengths)
    starts = np.repeat(np.cumsum([0, *lengths[:-1]]), lengths)
    position = np.arange(thread.size) - starts
    # Round r takes positions [r*chunk, (r+1)*chunk) of each thread in
    # thread order, so the stable sort on (round, thread) is the rotation.
    order = radix_argsort((position // chunk) * len(traces) + thread)
    merged = concat_traces(traces)
    return AccessTrace(
        va=merged.va[order],
        is_write=merged.is_write[order],
        variable=merged.variable[order],
    )


def split_masks(trace: AccessTrace, threads: int) -> list[AccessTrace]:
    """Deal a merged trace across threads round-robin (work stealing)."""
    if threads <= 1:
        return [trace]
    return [
        trace.select(np.arange(len(trace)) % threads == t)
        for t in range(threads)
    ]


def oracle_external_trace(cpu, thread_traces: list[AccessTrace]):
    """``CPUModel.external_trace`` on the oracles: ``(external, l1s, llc)``.

    Thread ``i`` runs on core ``i % cores``; each core's L1 stays warm
    from one of its threads to the next.
    """
    l1s = [DictLRU(cpu.l1_bytes, cpu.line_bytes) for _ in range(cpu.cores)]
    streams = [
        l1s[index % cpu.cores].filter_trace(trace.aligned(cpu.line_bytes))
        for index, trace in enumerate(thread_traces)
    ]
    llc = DictLRU(cpu.llc_bytes, cpu.line_bytes, ways=16)
    external = llc.filter_trace(interleave_loop(streams, chunk=4))
    return external, l1s, llc
