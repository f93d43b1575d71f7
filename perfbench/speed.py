"""The host's current speed, from a fixed reference kernel.

On a shared VM the same serial code runs up to 2x faster or slower
from one second to the next, in CPU time as well as wall time: other
tenants contend for the core, its caches and memory.  The benchmark
runs :meth:`HostSpeed.sample` between timed cells and reports a cell
in *reference seconds*: its CPU seconds scaled by ``REFERENCE_SECONDS``
over the kernel's CPU seconds around it, that is, CPU seconds at the
host speed at which the kernel takes ``REFERENCE_SECONDS``.

The kernel belongs to the benchmark and never changes with the
program, so a change to the program moves reference seconds exactly as
it moves CPU seconds on a quiet host.  It is built like the code the
program spends most of its time in, so that contention slows both
alike: an LRU set-associative cache walked one access per method call
over dicts of small lists, with counters on an attribute object and
output lists (the ``cpu`` filter), then numpy sorting and gathering
(decode and the timing tiers).
"""

from __future__ import annotations

import gc

import numpy as np

from spans import clock

#: CPU seconds of one :func:`reference_kernel` call on a 2-vCPU x86 VM
#: in its usual (not its fastest) state, Python 3.11.
REFERENCE_SECONDS = 0.035


class _Counters:
    def __init__(self):
        self.accesses = 0
        self.hits = 0


class _Cache:
    """A 4-way LRU cache of 64-byte lines."""

    def __init__(self, sets: int):
        self.sets = [{} for _ in range(sets)]
        self.clock = 0
        self.counters = _Counters()

    def access(self, address: int, write: bool):
        line = address >> 6
        ways = self.sets[line % len(self.sets)]
        self.clock += 1
        self.counters.accesses += 1
        entry = ways.get(line)
        if entry is not None:
            entry[0] = self.clock
            entry[1] = entry[1] or write
            self.counters.hits += 1
            return True, None
        victim = None
        if len(ways) >= 4:
            oldest = min(ways, key=lambda t: ways[t][0])
            if ways.pop(oldest)[1]:
                victim = oldest << 6
        ways[line] = [self.clock, write]
        return False, victim


def _accesses(count: int) -> tuple[list[int], list[bool]]:
    """A fixed mix of strided and pseudo-random accesses, 1 in 3 writes."""
    state, addresses = 12345, []
    for index in range(count):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        strided = (index * 64) & 0x3FFFFF
        addresses.append(strided if index % 3 == 0 else (state >> 4) & 0x3FFFFF)
    return addresses, [index % 3 == 1 for index in range(count)]


_ADDRESSES, _WRITES = _accesses(12_000)
_VALUES = np.random.default_rng(0).integers(0, 1 << 22, 100_000)


def reference_kernel() -> int:
    """Fixed work; returns the external access count (always the same)."""
    cache = _Cache(sets=32)
    out_address, out_write = [], []
    access = cache.access
    for address, write in zip(_ADDRESSES, _WRITES):
        hit, victim = access(address, write)
        if victim is not None:
            out_address.append(victim)
            out_write.append(True)
        if not hit:
            out_address.append(address)
            out_write.append(write)
    external = np.array(out_address, dtype=np.uint64)
    order = np.argsort(_VALUES, kind="stable")
    rows = np.unique(_VALUES[order] >> 10)
    return int(external.size + rows.size + np.count_nonzero(out_write))


class HostSpeed:
    """The latest reference-kernel sample, taken between cells.

    Garbage collection is off while the kernel runs, so its time does
    not depend on how many objects the program keeps alive.
    """

    def __init__(self):
        self.last: float | None = None

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_kernel()
            self.last = clock() - start
        finally:
            if enabled:
                gc.enable()
        return self.last

    def latest(self) -> float:
        """The last sample, taking one first if there is none.

        Samples are taken only between cells, so the sample after one
        cell is also the sample before the next.
        """
        return self.last if self.last is not None else self.sample()
