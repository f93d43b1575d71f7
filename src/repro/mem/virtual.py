"""Per-process virtual memory: VMAs, page table, on-demand paging.

The paper stores the address-mapping id in ``vm_area_struct`` and moves
chunk-aware frame allocation into the page-fault handler (Section 6.1);
:class:`AddressSpace` models exactly that.  VA-to-PA translation is
untouched by SDAM — a normal page table — which is what guarantees
functional correctness (Section 4).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import AddressError, AllocationError, OutOfMemoryError

__all__ = ["VMArea", "AddressSpace"]

# Virtual address space starts well above zero so a null pointer faults.
VA_BASE = 0x0000_1000_0000
VA_LIMIT = 1 << 47
# Page-table sentinels, above every frame address: a page of a VMA that
# has no frame yet, and a page no VMA covers (a guard page, an unmapped
# VMA, or any address outside ``[VA_BASE, _next_va)``).
_NOT_RESIDENT = np.uint64((1 << 64) - 2)
_UNMAPPED = np.uint64((1 << 64) - 1)


def _segfault(va: int) -> AddressError:
    return AddressError(f"segmentation fault: {va:#x} is unmapped")


@dataclass
class VMArea:
    """A ``vm_area_struct``: one mmap'ed region with its mapping id."""

    start: int
    end: int
    mapping_id: int
    name: str = ""
    faults: int = field(default=0)

    def __contains__(self, va: int) -> bool:
        return self.start <= va < self.end

    @property
    def length(self) -> int:
        """Region length in bytes."""
        return self.end - self.start


class AddressSpace:
    """One process's virtual address space.

    ``fault_handler(mapping_id, count) -> frame PAs`` is supplied by the
    kernel; it allocates the frames for ``count`` first-touched pages of
    one VMA (on-demand paging).

    The page table is one ``uint64`` array over ``[VA_BASE, _next_va)``,
    which ``mmap`` hands out contiguously: slot ``i`` holds page
    ``(VA_BASE >> page_bits) + i``'s frame PA or a sentinel, and one
    last ``_UNMAPPED`` slot stands for every address outside.
    """

    def __init__(
        self,
        page_bytes: int,
        fault_handler: Callable[[int, int], Sequence[int]],
        pid: int = 0,
    ):
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise AllocationError("page size must be a power of two")
        self.page_bytes = page_bytes
        self.page_bits = page_bytes.bit_length() - 1
        self.pid = pid
        self._fault_handler = fault_handler
        self._vmas: list[VMArea] = []  # in address order
        # Every VMA's start and end, flattened in address order: an
        # address lies in ``_vmas[i]`` exactly when it bisects to 2i + 1.
        self._bounds: list[int] = []
        self._base_vpn = VA_BASE >> self.page_bits
        self._table = np.full(1, _UNMAPPED)  # slot -> frame PA or sentinel
        self._next_va = VA_BASE
        self.total_faults = 0

    def _slot(self, va: int) -> int:
        return (int(va) >> self.page_bits) - self._base_vpn

    # -- VMA management -----------------------------------------------------
    def mmap(self, length: int, mapping_id: int = 0, name: str = "") -> VMArea:
        """Create an anonymous mapping; pages populate on first touch."""
        if length <= 0:
            raise AllocationError("mmap length must be positive")
        pages = -(-length // self.page_bytes)
        start = self._next_va
        end = start + pages * self.page_bytes
        if end > VA_LIMIT:
            raise AllocationError("virtual address space exhausted")
        self._next_va = end + self.page_bytes  # guard page between VMAs
        # The VMA's pages, its guard page, then the outside slot again.
        self._table = np.concatenate(
            (self._table[:-1], np.full(pages, _NOT_RESIDENT), np.full(2, _UNMAPPED))
        )
        vma = VMArea(start=start, end=end, mapping_id=mapping_id, name=name)
        self._vmas.append(vma)
        self._bounds += (start, end)
        return vma

    def munmap(self, vma: VMArea, free_frame: Callable[[int], None]) -> None:
        """Tear down a mapping, freeing any populated frames."""
        if vma not in self._vmas:
            raise AddressError("VMA does not belong to this address space")
        slots = self._table[self._slot(vma.start) : self._slot(vma.end)]
        frames = slots[slots < _NOT_RESIDENT].tolist()
        slots[:] = _UNMAPPED
        for frame in frames:
            free_frame(frame)
        index = self._vmas.index(vma)
        del self._vmas[index]
        del self._bounds[2 * index : 2 * index + 2]

    def find_vma(self, va: int) -> VMArea:
        """The VMA containing an address, or segfault."""
        slot = bisect_right(self._bounds, va)
        if slot & 1:
            return self._vmas[slot >> 1]
        raise _segfault(va)

    @property
    def vmas(self) -> list[VMArea]:
        """All VMAs in the address space."""
        return list(self._vmas)

    # -- faults and translation ------------------------------------------------
    def _fault(self, vma: VMArea, slots: np.ndarray) -> Sequence[int]:
        """Fault in ascending page-table ``slots`` of one VMA, one call.

        If memory runs out part-way, the pages that got frames stay
        mapped, just as faulting them one at a time would leave them.
        """
        frames: Sequence[int] = ()
        try:
            frames = self._fault_handler(vma.mapping_id, len(slots))
        except OutOfMemoryError as error:
            frames = error.frames
            raise
        finally:
            self._table[slots[: len(frames)]] = frames
            vma.faults += len(frames)
            self.total_faults += len(frames)
        return frames

    def _fault_missing(self, slots: np.ndarray, va: np.ndarray) -> None:
        """Fault in the pages of accesses ``va`` whose (clipped) page-table
        ``slots`` hold a sentinel.

        A boolean page map lists the pages once, in ascending order.
        One search of the VMA bounds finds every page's VMA; as the
        pages ascend, each VMA's pages form one run, faulted with one
        handler call.  Runs fault in page order up to the first unmapped
        page, which segfaults.
        """
        marked = np.zeros(self._table.size, dtype=bool)
        marked[slots] = True
        pages = np.flatnonzero(marked)
        stop = pages.size
        unmapped = self._table[slots] == _UNMAPPED
        if unmapped.any():
            first_vpn = int((va[unmapped] >> np.uint64(self.page_bits)).min())
            first = min(max(first_vpn - self._base_vpn, 0), pages[-1])
            stop = int(np.searchsorted(pages, first))
        page_vas = (pages[:stop] + self._base_vpn) << self.page_bits
        vma_index = np.searchsorted(self._bounds, page_vas, side="right") >> 1
        starts = np.flatnonzero(np.diff(vma_index, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [stop]):
            self._fault(self._vmas[vma_index[lo]], pages[lo:hi])
        if stop < pages.size:
            raise _segfault(first_vpn << self.page_bits)

    def translate(self, va: int) -> int:
        """Translate one VA, faulting the page in if needed."""
        frame = self.frame_of(va)
        if frame is None:
            vma = self.find_vma((int(va) >> self.page_bits) << self.page_bits)
            frame = int(self._fault(vma, np.array([self._slot(va)]))[0])
        return frame | (int(va) & (self.page_bytes - 1))

    def translate_trace(self, va: np.ndarray) -> np.ndarray:
        """Vectorised translation of a whole VA trace.

        One gather through the page table translates the trace; the
        accesses that hit a sentinel have their pages faulted in, one
        handler call per VMA, and are gathered again.
        """
        va = np.asarray(va, dtype=np.uint64)
        slots = va >> np.uint64(self.page_bits)
        # Addresses below VA_BASE wrap around; all outside the table
        # clip to its last slot, which reads _UNMAPPED.
        np.subtract(slots, np.uint64(self._base_vpn), out=slots)
        np.minimum(slots, np.uint64(self._table.size - 1), out=slots)
        frames = self._table[slots]
        missing = frames >= _NOT_RESIDENT
        if missing.any():
            self._fault_missing(slots[missing], va[missing])
            frames[missing] = self._table[slots[missing]]
        np.bitwise_or(frames, va & np.uint64(self.page_bytes - 1), out=frames)
        return frames

    # -- RAS: page relocation ------------------------------------------------
    def vpn_of_frame(self, frame_pa: int) -> int | None:
        """Reverse lookup: the virtual page mapped to a frame, if any.

        A scan of the page table — the model has no rmap; fine for the
        RAS path, which relocates a handful of pages per repair.
        """
        hits = np.flatnonzero(self._table == np.uint64(frame_pa))
        return int(hits[0]) + self._base_vpn if hits.size else None

    def remap(self, vpn: int, new_frame: int) -> int:
        """Point a resident virtual page at a different frame.

        Returns the old frame.  Used by page relocation: the kernel
        copies the contents, then atomically switches the PTE.
        """
        old = self.frame_of(vpn << self.page_bits)
        if old is None:
            raise AddressError(f"vpn {vpn:#x} is not resident")
        self._table[vpn - self._base_vpn] = new_frame
        return old

    # -- introspection -------------------------------------------------------
    def page_table(self) -> list[tuple[int, int]]:
        """``(vpn, frame PA)`` of every resident page, by vpn."""
        slots = np.flatnonzero(self._table < _NOT_RESIDENT)
        return list(zip((slots + self._base_vpn).tolist(), self._table[slots].tolist()))

    def resident_pages(self) -> int:
        """Pages with frames mapped in."""
        return int(np.count_nonzero(self._table < _NOT_RESIDENT))

    def frame_of(self, va: int) -> int | None:
        """Frame backing ``va`` or None if not yet faulted in."""
        slot = self._slot(va)
        if not 0 <= slot < self._table.size or self._table[slot] >= _NOT_RESIDENT:
            return None
        return int(self._table[slot])
