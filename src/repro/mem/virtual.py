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
# Page-table lookup default: above every frame address.
_NOT_RESIDENT = (1 << 64) - 1


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
        self._page_table: dict[int, int] = {}  # vpn -> frame PA
        self._next_va = VA_BASE
        self.total_faults = 0

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
        vma = VMArea(start=start, end=end, mapping_id=mapping_id, name=name)
        self._vmas.append(vma)
        self._bounds += (start, end)
        return vma

    def munmap(self, vma: VMArea, free_frame: Callable[[int], None]) -> None:
        """Tear down a mapping, freeing any populated frames."""
        if vma not in self._vmas:
            raise AddressError("VMA does not belong to this address space")
        first_vpn = vma.start >> self.page_bits
        last_vpn = (vma.end - 1) >> self.page_bits
        for vpn in range(first_vpn, last_vpn + 1):
            frame = self._page_table.pop(vpn, None)
            if frame is not None:
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
    def _fault(self, vma: VMArea, vpns: list[int]) -> Sequence[int]:
        """Fault in ascending ``vpns`` of one VMA with one handler call.

        If memory runs out part-way, the pages that got frames stay
        mapped, just as faulting them one at a time would leave them.
        """
        frames: Sequence[int] = ()
        try:
            frames = self._fault_handler(vma.mapping_id, len(vpns))
        except OutOfMemoryError as error:
            frames = error.frames
            raise
        finally:
            self._page_table.update(zip(vpns, frames))
            vma.faults += len(frames)
            self.total_faults += len(frames)
        return frames

    def _fault_pages(self, vpns: np.ndarray) -> list[int]:
        """Fault in ascending, non-resident ``vpns``; returns their frames.

        One search of the VMA bounds finds every page's VMA.  As the
        pages ascend, each VMA's pages form one run, faulted with one
        handler call.  Runs fault in page order up to the first unmapped
        page, which segfaults.
        """
        slots = np.searchsorted(
            np.array(self._bounds, dtype=np.uint64),
            vpns << np.uint64(self.page_bits),
            side="right",
        )
        unmapped = np.flatnonzero((slots & 1) == 0)
        stop = int(unmapped[0]) if unmapped.size else vpns.size
        vma_index = slots[:stop] >> 1
        starts = np.flatnonzero(np.diff(vma_index, prepend=-1)).tolist()
        pages = vpns.tolist()
        frames: list[int] = []
        for lo, hi in zip(starts, starts[1:] + [stop]):
            frames += self._fault(self._vmas[vma_index[lo]], pages[lo:hi])
        if stop < len(pages):
            raise _segfault(pages[stop] << self.page_bits)
        return frames

    def translate(self, va: int) -> int:
        """Translate one VA, faulting the page in if needed."""
        vpn = int(va) >> self.page_bits
        frame = self._page_table.get(vpn)
        if frame is None:
            (frame,) = self._fault(self.find_vma(vpn << self.page_bits), [vpn])
        return frame | (int(va) & (self.page_bytes - 1))

    def translate_trace(self, va: np.ndarray) -> np.ndarray:
        """Vectorised translation of a whole VA trace.

        Unique pages are looked up once and the non-resident ones are
        faulted in, one handler call per VMA; the trace is then
        translated with one gather.
        """
        va = np.asarray(va, dtype=np.uint64)
        if va.size == 0:
            return va.copy()
        vpn = va >> np.uint64(self.page_bits)
        unique_vpns, inverse = np.unique(vpn, return_inverse=True)
        lookup = self._page_table.get
        frames = np.array(
            [lookup(page, _NOT_RESIDENT) for page in unique_vpns.tolist()],
            dtype=np.uint64,
        )
        new = np.flatnonzero(frames == np.uint64(_NOT_RESIDENT))
        if new.size:
            frames[new] = self._fault_pages(unique_vpns[new])
        offset = va & np.uint64(self.page_bytes - 1)
        return frames[inverse] | offset

    # -- RAS: page relocation ------------------------------------------------
    def vpn_of_frame(self, frame_pa: int) -> int | None:
        """Reverse lookup: the virtual page mapped to a frame, if any.

        A linear scan — the model has no rmap; fine for the RAS path,
        which relocates a handful of pages per repair.
        """
        for vpn, frame in self._page_table.items():
            if frame == frame_pa:
                return vpn
        return None

    def remap(self, vpn: int, new_frame: int) -> int:
        """Point a resident virtual page at a different frame.

        Returns the old frame.  Used by page relocation: the kernel
        copies the contents, then atomically switches the PTE.
        """
        if vpn not in self._page_table:
            raise AddressError(f"vpn {vpn:#x} is not resident")
        old = self._page_table[vpn]
        self._page_table[vpn] = new_frame
        return old

    # -- introspection -------------------------------------------------------
    def resident_pages(self) -> int:
        """Pages with frames mapped in."""
        return len(self._page_table)

    def frame_of(self, va: int) -> int | None:
        """Frame backing ``va`` or None if not yet faulted in."""
        return self._page_table.get(int(va) >> self.page_bits)
