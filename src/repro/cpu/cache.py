"""Set-associative write-back cache with LRU replacement.

Filters a program's access stream into the *external* (miss +
write-back) stream that actually reaches the memory controller — the
stream the paper profiles and optimises.  The BOOM prototype has 64 KB
L1 caches; accelerators have small or no caches, which is why they are
more sensitive to CLP (Section 7.4).

The filter is decided offline, for a whole trace at once, rather than
simulated one access at a time.  Within a set, an access hits iff fewer
than ``ways`` distinct lines were touched since its line's previous
access (its LRU stack distance; Mattson et al., 1970).  LRU evicts lines
in the order of their last use, so once the set is full its j-th miss
evicts the line of its j-th *residency end* (an access whose line is not
touched again before it misses).  Both rules are exact: the external
stream is the one a per-access LRU produces.  DESIGN.md §8 gives the
derivation.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import AccessTrace, concat_traces, radix_argsort
from repro.errors import ConfigError

__all__ = ["SetAssociativeCache", "CacheStats"]

SLAB_ACCESSES = 1 << 16
"""Accesses per scan slab (whole sets; a larger set is a slab alone)."""

WALK_STEPS = 128
"""Single steps of the backward walk before skipping runs in jumps."""


class CacheStats:
    """Hit/miss/write-back counters."""

    __slots__ = ("accesses", "hits", "misses", "writebacks")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def hit_rate(self) -> float:
        """Hits divided by accesses."""
        return self.hits / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(accesses={self.accesses}, hit_rate={self.hit_rate:.3f},"
            f" writebacks={self.writebacks})"
        )


class SetAssociativeCache:
    """LRU set-associative write-back, write-allocate cache."""

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        if ways < 1:
            raise ConfigError("need at least one way")
        if line_bytes < 1:
            raise ConfigError("line size must be positive")
        if size_bytes <= 0 or size_bytes % (line_bytes * ways):
            raise ConfigError(
                "cache size must be a positive multiple of line_bytes*ways"
            )
        if line_bytes & (line_bytes - 1):
            raise ConfigError("line size must be a power of two")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.line_bits = line_bytes.bit_length() - 1
        self.stats = CacheStats()

    def filter_trace(self, trace: AccessTrace) -> AccessTrace:
        """Run a trace through the cold cache; return the external stream.

        Every miss goes out with its own address, write flag and
        variable.  A dirty eviction goes out just before the miss that
        causes it, as a write of the evicted line; it carries the
        variable of that *evicting* access, not of the line's last
        writer.  ``stats`` counts this call.
        """
        return self.filter_traces([trace])[0]

    def filter_traces(self, traces: list[AccessTrace]) -> list[AccessTrace]:
        """Filter traces back to back, the cache warm between them.

        The result is one external stream per input trace — the same
        streams as filtering the concatenation and splitting the output
        at the input boundaries.  ``stats`` counts the whole call.
        """
        trace = concat_traces(traces)
        line = (trace.va >> np.uint64(self.line_bits)).astype(np.int64)
        miss, evictor, victim = self._decide(line, trace.is_write)
        misses = np.flatnonzero(miss)
        self.stats = CacheStats()
        self.stats.accesses = len(trace)
        self.stats.misses = misses.size
        self.stats.hits = len(trace) - misses.size
        self.stats.writebacks = evictor.size
        # Each miss emits [write-back] then itself; scatter both.
        emitted = miss.astype(np.int32)
        emitted[evictor] = 2
        ends = np.cumsum(emitted)
        total = int(ends[-1]) if ends.size else 0
        va = np.empty(total, dtype=np.uint64)
        is_write = np.empty(total, dtype=bool)
        variable = np.empty(total, dtype=np.int64)
        miss_slot = ends[misses] - 1
        va[miss_slot] = trace.va[misses]
        is_write[miss_slot] = trace.is_write[misses]
        variable[miss_slot] = trace.variable[misses]
        wb_slot = ends[evictor] - 2
        va[wb_slot] = (line[victim] << self.line_bits).astype(np.uint64)
        is_write[wb_slot] = True
        variable[wb_slot] = trace.variable[evictor]
        # Output offset of each input boundary, to split per input trace.
        edges = np.concatenate(([0], ends))[np.cumsum([0, *map(len, traces)])]
        return [
            AccessTrace(
                va=va[start:stop],
                is_write=is_write[start:stop],
                variable=variable[start:stop],
            )
            for start, stop in zip(edges[:-1], edges[1:])
        ]

    # -- the offline LRU decision ------------------------------------------------
    def _decide(
        self, line: np.ndarray, is_write: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per access a miss flag; and the dirty evictions, as index pairs.

        Returns ``(miss, evictor, victim)``: ``evictor[k]`` is a miss
        whose eviction writes back the line of access ``victim[k]``.
        The decision runs on *sorted positions*: accesses sorted stably
        by set, so each set is a contiguous run in time order.
        """
        n = line.size
        tag = line // self.num_sets
        sets = line - tag * self.num_sets
        order = radix_argsort(sets)
        # Sorted positions grouped by line, time order within a line:
        # equal tags keep position order, which groups them by set.
        chain = radix_argsort(tag[order])
        traced = order[chain]
        linked = line[traced]
        same = np.flatnonzero(linked[1:] == linked[:-1])
        before, after = chain[same], chain[same + 1]
        # int32 links: the walk reads them slab by slab without a copy.
        prev = np.full(n, -1, dtype=np.int32)
        prev[after] = before
        nxt = np.full(n, n, dtype=np.int32)
        nxt[before] = after
        counts = np.bincount(sets, minlength=self.num_sets)
        set_ends = np.cumsum(counts)
        miss = ~self._hits(prev, nxt, set_ends)
        # Along the chain, a line's accesses from a miss up to its next
        # miss (or the next line) are one residency; the last of them is
        # a residency end, dirty iff the residency holds a write.
        fills = np.flatnonzero(miss[chain])
        is_end = np.zeros(n, dtype=bool)
        dirty = np.zeros(n, dtype=bool)
        if fills.size:
            last = chain[np.append(fills[1:], n) - 1]
            is_end[last] = True
            dirty[last] = np.logical_or.reduceat(is_write[traced], fills)
        # LRU evicts lines in the order of their last use, so once a set
        # is full (``ways`` misses in) its j-th further miss evicts its
        # j-th residency end.  Each miss fills one residency, so every set
        # holds as many ends as misses, and miss g (counted over all
        # sets) evicts end g - ways unless it is among its set's first
        # ``ways`` misses.
        misses = np.flatnonzero(miss)
        first = np.searchsorted(misses, set_ends - counts)
        filling = first[:, None] + np.arange(self.ways)
        next_first = np.append(first[1:], misses.size)[:, None]
        evicting = np.ones(misses.size, dtype=bool)
        evicting[filling[filling < next_first]] = False
        g = np.flatnonzero(evicting)
        evicts, victim = misses[g], np.flatnonzero(is_end)[g - self.ways]
        write_back = dirty[victim]
        trace_miss = np.empty(n, dtype=bool)
        trace_miss[order] = miss
        return trace_miss, order[evicts[write_back]], order[victim[write_back]]

    def _hits(self, prev: np.ndarray, nxt: np.ndarray, set_ends: np.ndarray):
        """Hit flags on sorted positions, from LRU stack distances.

        Access ``i`` hits iff fewer than ``ways`` distinct lines were
        touched in ``(prev[i], i)``.  Windows shorter than ``ways`` hit
        and windows holding ``ways`` first touches miss without a walk;
        the rest walk back, one slab of whole sets at a time.
        """
        n = prev.size
        hit = np.zeros(n, dtype=bool)
        reuse = np.flatnonzero(prev >= 0)
        last = prev[reuse]
        short = reuse - last <= self.ways
        hit[reuse] = short
        first_touches = np.cumsum(prev < 0, dtype=np.int32)
        crowded = first_touches[reuse - 1] - first_touches[last] >= self.ways
        todo = reuse[np.flatnonzero(~(short | crowded))]
        # Slabs of whole sets: cut at the first set boundary past each
        # multiple of SLAB_ACCESSES.
        marks = np.arange(SLAB_ACCESSES, n, SLAB_ACCESSES)
        cuts = np.unique(set_ends[np.searchsorted(set_ends, marks)]).tolist()
        bounds = [0, *(c for c in cuts if c < n), n]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            query = todo[np.searchsorted(todo, start) : np.searchsorted(todo, stop)]
            hit[query] = _walk(
                nxt[start:stop] - start,
                (query - start).astype(np.int32),
                prev[query] - start,
                self.ways,
            )
        return hit

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.size_bytes // 1024}KiB, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )


def _walk(nxt: np.ndarray, query: np.ndarray, floor: np.ndarray, ways: int):
    """Hit flags for ``query`` positions of one slab (slab-local indices).

    Query ``i`` walks back from ``i - 1`` to its line's previous access
    ``floor[i]`` and counts positions ``k`` with ``nxt[k] > i``: the
    last touch of each distinct line in between.  It misses as soon as
    the count reaches ``ways`` and hits if the walk reaches the floor.
    """
    hit = np.zeros(query.size, dtype=bool)
    index = np.arange(query.size)
    k = query - 1
    count = np.zeros(query.size, dtype=np.int32)
    spans = None
    step = 0
    while index.size:
        if step >= WALK_STEPS:
            # Long windows full of repeated lines: skip runs in jumps.
            if spans is None:
                spans = _span_maxima(nxt)
            k = _skip(spans, k, floor, query)
        step += 1
        out = k == floor
        count += nxt[k] > query
        hit[index[out]] = True
        done = out | (count == ways)
        if done.any():
            keep = ~done
            index, query, floor = index[keep], query[keep], floor[keep]
            k, count = k[keep], count[keep]
        k -= 1
    return hit


def _span_maxima(nxt: np.ndarray) -> list[np.ndarray]:
    """Sparse table: ``spans[j][s] = max(nxt[s : s + 2**j])``."""
    spans = [nxt]
    width = 1
    while 2 * width <= nxt.size:
        spans.append(np.maximum(spans[-1][:-width], spans[-1][width:]))
        width *= 2
    return spans


def _skip(spans, k, floor, query):
    """Move each ``k`` down past positions not counted for its query.

    Jumps over the block of ``2**j`` positions ending at ``k`` when its
    largest ``nxt`` is at most the query, for ``j`` from the top level
    down, so a run of any length costs one pass over the levels.  Stops
    at ``floor`` or at a counted position.
    """
    for level in range(len(spans) - 1, -1, -1):
        start = k - (1 << level) + 1
        table = spans[level]
        jump = start > floor
        jump &= table[np.clip(start, 0, table.size - 1)] <= query
        k = np.where(jump, start - 1, k)
    return k
