"""Mapping-aware user-space allocator (the modified glibc malloc).

Section 6.1: malloc gains an optional address-mapping-id argument; each
heap is associated with exactly one mapping, a heap-mapping array tracks
the heaps per mapping, and allocation inside a heap uses the standard
first-fit free-list machinery.  Because heaps are page-aligned and
allocate/free independently, every page holds data of a single mapping —
the invariant the chunk allocator depends on.

``malloc`` also records an *allocation tag* (the variable / allocation
site), standing in for the paper's call-stack matching: the profiler
uses it to split traces per variable.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.kernel import Kernel
from repro.mem.virtual import AddressSpace, VMArea

__all__ = ["Allocation", "Heap", "MappingAwareAllocator"]

ALIGNMENT = 16
DEFAULT_HEAP_BYTES = 4 * 1024 * 1024  # glibc's HEAP_MAX_SIZE ballpark


def _align_up(value: int, alignment: int = ALIGNMENT) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class Allocation:
    """One live malloc'ed object."""

    va: int
    size: int
    mapping_id: int
    tag: str


class Heap:
    """One mapping's heap: a VMA plus a first-fit free list."""

    def __init__(self, vma: VMArea, mapping_id: int):
        self.vma = vma
        self.mapping_id = mapping_id
        # Free list: sorted (offset, size) tuples, coalesced.
        self._free: list[tuple[int, int]] = [(0, vma.length)]
        self._allocated: dict[int, int] = {}  # offset -> size

    @property
    def base(self) -> int:
        """The heap's ``ar_ptr``."""
        return self.vma.start

    @property
    def size(self) -> int:
        """Heap length in bytes."""
        return self.vma.length

    def __contains__(self, va: int) -> bool:
        return self.vma.start <= va < self.vma.end

    @property
    def free_bytes(self) -> int:
        """Total free bytes across the free list."""
        return sum(size for _offset, size in self._free)

    @property
    def is_empty(self) -> bool:
        """True when nothing is allocated."""
        return not self._allocated

    def alloc(self, size: int) -> int | None:
        """First-fit allocate; returns VA or None if nothing fits."""
        need = _align_up(max(size, 1))
        for position, (offset, block) in enumerate(self._free):
            if block >= need:
                remainder = block - need
                if remainder:
                    self._free[position] = (offset + need, remainder)
                else:
                    del self._free[position]
                self._allocated[offset] = need
                return self.base + offset
        return None

    def free(self, va: int) -> int:
        """Free a block; returns its size.  Coalesces neighbours."""
        offset = va - self.base
        try:
            size = self._allocated.pop(offset)
        except KeyError:
            raise AllocationError(f"double or invalid free at {va:#x}")
        insort(self._free, (offset, size))
        self._coalesce()
        return size

    def _coalesce(self) -> None:
        merged: list[tuple[int, int]] = []
        for offset, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                last_offset, last_size = merged[-1]
                merged[-1] = (last_offset, last_size + size)
            else:
                merged.append((offset, size))
        self._free = merged


class MappingAwareAllocator:
    """The modified ``malloc``/``free`` with per-mapping heaps."""

    def __init__(self, kernel: Kernel, space: AddressSpace):
        self.kernel = kernel
        self.space = space
        # The heap-mapping array (Fig. 8): mapping id -> its heaps.
        self._heaps_by_mapping: dict[int, list[Heap]] = {}
        self._allocations: dict[int, Allocation] = {}
        self.bytes_live = 0
        self.malloc_calls = 0
        self.free_calls = 0

    # -- API additions from the paper --------------------------------------
    def add_addr_map(self, mapping) -> int:
        """Register a new address mapping; returns its id (Section 6.1)."""
        return self.kernel.add_addr_map(mapping)

    # -- malloc / free ---------------------------------------------------------
    def malloc(self, size: int, mapping_id: int = 0, tag: str = "") -> int:
        """Allocate ``size`` bytes from a heap with the desired mapping."""
        if size <= 0:
            raise AllocationError("malloc size must be positive")
        self.malloc_calls += 1
        heaps = self._heaps_by_mapping.setdefault(mapping_id, [])
        for heap in heaps:
            va = heap.alloc(size)
            if va is not None:
                break
        else:
            heap = self._grow(mapping_id, size)
            va = heap.alloc(size)
            if va is None:  # pragma: no cover - fresh heap always fits
                raise OutOfMemoryError("fresh heap could not satisfy request")
        allocation = Allocation(va=va, size=size, mapping_id=mapping_id, tag=tag)
        self._allocations[va] = allocation
        self.bytes_live += size
        return va

    def _grow(self, mapping_id: int, size: int) -> Heap:
        """Create a new heap for a mapping (mmap with mapping id)."""
        length = max(DEFAULT_HEAP_BYTES, _align_up(size, ALIGNMENT))
        vma = self.kernel.sys_mmap(
            self.space, length, mapping_id=mapping_id, name=f"heap:{mapping_id}"
        )
        heap = Heap(vma, mapping_id)
        self._heaps_by_mapping[mapping_id].append(heap)
        return heap

    def free(self, va: int) -> None:
        """Free: locate the owning heap by base/size, then release."""
        self.free_calls += 1
        allocation = self._allocations.pop(va, None)
        if allocation is None:
            raise AllocationError(f"free of unallocated pointer {va:#x}")
        heap = self._find_heap(va, allocation.mapping_id)
        heap.free(va)
        self.bytes_live -= allocation.size

    def _find_heap(self, va: int, mapping_id: int) -> Heap:
        for heap in self._heaps_by_mapping.get(mapping_id, []):
            if va in heap:
                return heap
        raise AllocationError(f"pointer {va:#x} belongs to no heap")

    def trim(self) -> int:
        """munmap empty heaps; returns the number released."""
        released = 0
        for mapping_id, heaps in self._heaps_by_mapping.items():
            keep: list[Heap] = []
            for heap in heaps:
                if heap.is_empty:
                    self.kernel.sys_munmap(self.space, heap.vma)
                    released += 1
                else:
                    keep.append(heap)
            self._heaps_by_mapping[mapping_id] = keep
        return released

    # -- profiling hooks ----------------------------------------------------
    def allocation_of(self, va: int) -> Allocation:
        """The allocation containing ``va`` (not just its base)."""
        exact = self._allocations.get(va)
        if exact is not None:
            return exact
        for allocation in self._allocations.values():
            if allocation.va <= va < allocation.va + allocation.size:
                return allocation
        raise AllocationError(f"no live allocation contains {va:#x}")

    def live_allocations(self) -> list[Allocation]:
        """All live allocations."""
        return list(self._allocations.values())

    def heaps(self) -> list[Heap]:
        """Every heap across all mappings."""
        return [
            heap
            for heaps in self._heaps_by_mapping.values()
            for heap in heaps
        ]
