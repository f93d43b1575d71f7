"""The page-at-a-time fault path, kept as an oracle.

The package once faulted each first-touched page on its own: the
address space looked the page's VMA up by a linear scan, the kernel's
fault handler asked physical memory for one frame, and the chunk probed
a rotating cursor over a binary buddy allocator until it found a free
page.  The package now faults each VMA's new pages with one handler
call and allocates them in bulk on a per-chunk page bitmap.  The old
code is kept here verbatim, outside the package, as the oracle the bulk
path must match state for state (``tests/mem/test_fault_batch.py``).

``BuddyAllocator`` and ``Chunk`` are the former ``repro.mem.buddy`` and
``repro.mem.physical`` classes.  ``PhysicalMemory`` overrides only what
the bulk path changed: chunk construction, frame allocation and the
frame owners, which it keeps in the former dict from frame PA to chunk
number (the package derives a frame's owner from its PA and the chunk's
free bitmap).  ``FaultHandler`` is the former kernel handler and
``AddressSpace`` the former demand-paging half of
``repro.mem.virtual.AddressSpace``, with its dict page table.  The
``frame_owners`` and ``page_table`` accessors list the two dicts the way
the package's accessors list its state, for the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.chunks import ChunkGeometry
from repro.errors import (
    AddressError,
    AllocationError,
    OutOfMemoryError,
    ProfilingError,
)
from repro.mem import physical
from repro.mem.virtual import VA_BASE, VA_LIMIT, VMArea


class BuddyAllocator:
    """Classic binary buddy over ``2**max_order`` pages."""

    def __init__(self, max_order: int):
        if max_order < 0:
            raise AllocationError("max_order must be >= 0")
        self.max_order = max_order
        self.total_pages = 1 << max_order
        # free_lists[order] = set of block offsets (in pages)
        self._free_lists: list[set[int]] = [set() for _ in range(max_order + 1)]
        self._free_lists[max_order].add(0)
        self._allocated: dict[int, int] = {}  # offset -> order
        self.free_pages = self.total_pages

    @staticmethod
    def order_for(pages: int) -> int:
        """Smallest order whose block holds ``pages`` pages."""
        if pages <= 0:
            raise AllocationError("cannot size a block for <= 0 pages")
        return max(0, (pages - 1).bit_length())

    def alloc(self, order: int) -> int:
        """Allocate a block of ``2**order`` pages; returns page offset."""
        if order > self.max_order:
            raise OutOfMemoryError(
                f"order {order} exceeds allocator max {self.max_order}"
            )
        current = order
        while current <= self.max_order and not self._free_lists[current]:
            current += 1
        if current > self.max_order:
            raise OutOfMemoryError(f"no free block of order {order}")
        offset = self._free_lists[current].pop()
        while current > order:  # split down, freeing the upper buddy
            current -= 1
            buddy = offset + (1 << current)
            self._free_lists[current].add(buddy)
        self._allocated[offset] = order
        self.free_pages -= 1 << order
        return offset

    def alloc_pages(self, pages: int) -> int:
        """Allocate the smallest block covering ``pages`` pages."""
        return self.alloc(self.order_for(pages))

    def alloc_at(self, offset: int, order: int = 0) -> int:
        """Allocate the block of ``2**order`` pages at exactly ``offset``.

        Splits a containing free block down to the target.  Raises
        :class:`OutOfMemoryError` if the target is (partly) in use.
        Used by chunk colouring: the physical allocator starts each
        mapping's frames at a different rotation inside the chunk.
        """
        if order > self.max_order:
            raise OutOfMemoryError(f"order {order} exceeds max {self.max_order}")
        if offset % (1 << order):
            raise AllocationError(f"offset {offset} not aligned to order {order}")
        current = order
        while current <= self.max_order:
            candidate = offset & ~((1 << current) - 1)
            if candidate in self._free_lists[current]:
                break
            current += 1
        else:
            raise OutOfMemoryError(f"page {offset} is not free")
        self._free_lists[current].remove(candidate)
        while current > order:
            current -= 1
            half = 1 << current
            if offset & half:
                self._free_lists[current].add(candidate)
                candidate += half
            else:
                self._free_lists[current].add(candidate + half)
        self._allocated[offset] = order
        self.free_pages -= 1 << order
        return offset

    def is_free(self, offset: int, order: int = 0) -> bool:
        """True if the aligned block at ``offset`` is entirely free."""
        current = order
        while current <= self.max_order:
            candidate = offset & ~((1 << current) - 1)
            if candidate in self._free_lists[current]:
                return True
            current += 1
        return False

    def free(self, offset: int) -> None:
        """Free a previously allocated block, coalescing buddies."""
        try:
            order = self._allocated.pop(offset)
        except KeyError:
            raise AllocationError(f"block at page {offset} is not allocated")
        self.free_pages += 1 << order
        while order < self.max_order:
            buddy = offset ^ (1 << order)
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].remove(buddy)
            offset = min(offset, buddy)
            order += 1
        self._free_lists[order].add(offset)

    @property
    def is_empty(self) -> bool:
        """True when nothing is allocated (the whole region is one block)."""
        return not self._allocated

    def allocated_blocks(self) -> dict[int, int]:
        """Snapshot of live allocations: {page offset: order}."""
        return dict(self._allocated)

    def largest_free_order(self) -> int:
        """Largest order with a free block, or -1 if full."""
        for order in range(self.max_order, -1, -1):
            if self._free_lists[order]:
                return order
        return -1


@dataclass
class Chunk:
    """One physical chunk with its intra-chunk frame allocator.

    ``rotation_pages`` implements *chunk colouring*: frames are handed
    out starting at a per-mapping rotation inside the chunk, so heaps
    of different mappings do not all begin at chunk offset 0 (which
    would pile every mapping's hottest data into the same DRAM bank).
    """

    number: int
    geometry: ChunkGeometry
    mapping_id: int | None = None
    rotation_pages: int = 0
    frames: BuddyAllocator = field(init=False)
    retired_pages: set[int] = field(init=False, default_factory=set)
    _cursor: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        max_order = (self.geometry.pages_per_chunk - 1).bit_length()
        self.frames = BuddyAllocator(max_order)
        self._cursor = self.rotation_pages % self.geometry.pages_per_chunk

    @property
    def base_pa(self) -> int:
        """First physical address of the chunk."""
        return self.geometry.chunk_base(self.number)

    @property
    def free_pages(self) -> int:
        """Unallocated frames remaining."""
        return self.frames.free_pages

    def alloc_frame(self) -> int:
        """Allocate one frame; returns its physical address.

        Frames are allocated in rotated sequential order from
        ``rotation_pages``, wrapping around the chunk.
        """
        pages = self.geometry.pages_per_chunk
        for _attempt in range(pages):
            candidate = self._cursor
            self._cursor = (self._cursor + 1) % pages
            if self.frames.is_free(candidate):
                offset = self.frames.alloc_at(candidate)
                return self.base_pa + (offset << self.geometry.page_bits)
        raise OutOfMemoryError(f"chunk {self.number} has no free frames")

    def alloc_frames(self, count: int) -> list[int]:
        """Allocate ``count`` frames (not necessarily contiguous)."""
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, pa: int) -> None:
        """Free one frame by physical address."""
        offset = (pa - self.base_pa) >> self.geometry.page_bits
        if not 0 <= offset < self.geometry.pages_per_chunk:
            raise AllocationError(f"frame {pa:#x} not in chunk {self.number}")
        self.frames.free(offset)

    @property
    def is_empty(self) -> bool:
        """True when nothing is allocated."""
        return self.frames.is_empty

    # -- RAS: page retirement ---------------------------------------------
    def retire_page(self, page_offset: int) -> None:
        """Permanently take one page out of service.

        The page must be free (relocate live data first); it is pinned
        in the buddy allocator so neither the rotation cursor nor buddy
        coalescing can ever hand it out again.
        """
        if not 0 <= page_offset < self.geometry.pages_per_chunk:
            raise AllocationError(
                f"page {page_offset} outside chunk {self.number}"
            )
        if page_offset in self.retired_pages:
            return
        if not self.frames.is_free(page_offset):
            raise AllocationError(
                f"page {page_offset} of chunk {self.number} is live; "
                "relocate before retiring"
            )
        self.frames.alloc_at(page_offset)
        self.retired_pages.add(page_offset)

    def live_page_offsets(self) -> list[int]:
        """Offsets of data-bearing pages (allocated and not retired)."""
        live: list[int] = []
        for offset, order in self.frames.allocated_blocks().items():
            for page in range(offset, offset + (1 << order)):
                if page not in self.retired_pages:
                    live.append(page)
        return sorted(live)

    @property
    def is_drained(self) -> bool:
        """True when only retired pages remain allocated."""
        return not self.live_page_offsets()


class PhysicalMemory(physical.PhysicalMemory):
    """Physical memory whose chunks allocate through the buddy oracle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._frame_owner: dict[int, int] = {}  # frame PA -> chunk number

    def acquire_chunk(self, mapping_id: int) -> Chunk:
        """Move a chunk from the global free list into a mapping group."""
        if not self._free_chunks:
            raise OutOfMemoryError("no free chunks")
        number = self._free_chunks.popleft()
        # Chunk colouring: stagger each mapping's first frames so that
        # different mappings' hot leading pages land in different banks.
        rotation = (mapping_id % self.chunk_colours) * (
            self.geometry.pages_per_chunk // self.chunk_colours
        )
        chunk = Chunk(
            number=number, geometry=self.geometry, rotation_pages=rotation
        )
        self._chunks[number] = chunk
        self.group(mapping_id).add(chunk)
        self.chunks_acquired += 1
        if self.on_chunk_assigned is not None:
            self.on_chunk_assigned(number, mapping_id)
        if self.new_chunk_hook is not None:
            self.new_chunk_hook(chunk)
        return chunk

    # -- frame-level operations --------------------------------------------
    def alloc_frame(self, mapping_id: int) -> int:
        """Allocate one physical frame with the given address mapping."""
        group = self.group(mapping_id)
        chunk = group.chunk_with_space()
        if chunk is None:
            chunk = self.acquire_chunk(mapping_id)
        pa = chunk.alloc_frame()
        self._frame_owner[pa] = chunk.number
        return pa

    def alloc_frames(self, count: int, mapping_id: int) -> list[int]:
        """Allocate several frames with one mapping."""
        return [self.alloc_frame(mapping_id) for _ in range(count)]

    def free_frame(self, pa: int) -> None:
        """Free a frame; empty chunks coalesce back to the free list."""
        try:
            chunk_no = self._frame_owner.pop(pa)
        except KeyError:
            raise AllocationError(f"frame {pa:#x} was not allocated")
        chunk = self._chunks[chunk_no]
        chunk.free_frame(pa)
        if chunk.is_empty:
            self.release_chunk(chunk)

    def discard_frame(self, pa: int, retire: bool = True) -> None:
        """Drop a frame and (by default) retire its page in place."""
        try:
            chunk_no = self._frame_owner.pop(pa)
        except KeyError:
            raise AllocationError(f"frame {pa:#x} was not allocated")
        chunk = self._chunks[chunk_no]
        chunk.free_frame(pa)
        if retire:
            offset = (pa - chunk.base_pa) >> self.geometry.page_bits
            chunk.retire_page(offset)
            self.pages_retired += 1
            self._notify_retired(chunk_no, (offset,))
        elif chunk.is_empty:
            self.release_chunk(chunk)

    def frame_owners(self) -> list[tuple[int, int]]:
        """``(frame PA, chunk number)`` of every allocated frame, by PA."""
        return sorted(self._frame_owner.items())


class FaultHandler:
    """The former page-fault handler: one frame per call."""

    def __init__(
        self, physical: PhysicalMemory, mappings: dict[int, int], sdam_enabled: bool
    ):
        self.physical = physical
        self.mappings = mappings
        self.sdam_enabled = sdam_enabled

    def __call__(self, mapping_id: int) -> int:
        effective = mapping_id if self.sdam_enabled else 0
        if effective not in self.mappings:
            raise ProfilingError(
                f"mapping id {mapping_id} was never registered via add_addr_map"
            )
        return self.physical.alloc_frame(effective)


class AddressSpace:
    """One process's virtual address space.

    ``fault_handler(mapping_id) -> frame_pa`` is supplied by the kernel;
    it is invoked on first touch of each page (on-demand paging).
    """

    def __init__(
        self,
        page_bytes: int,
        fault_handler: Callable[[int], int],
        pid: int = 0,
    ):
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise AllocationError("page size must be a power of two")
        self.page_bytes = page_bytes
        self.page_bits = page_bytes.bit_length() - 1
        self.pid = pid
        self._fault_handler = fault_handler
        self._vmas: list[VMArea] = []
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
        self._vmas.remove(vma)

    def find_vma(self, va: int) -> VMArea:
        """The VMA containing an address, or segfault."""
        for vma in self._vmas:
            if va in vma:
                return vma
        raise AddressError(f"segmentation fault: {va:#x} is unmapped")

    @property
    def vmas(self) -> list[VMArea]:
        """All VMAs in the address space."""
        return list(self._vmas)

    # -- faults and translation ------------------------------------------------
    def _fault(self, vpn: int) -> int:
        va = vpn << self.page_bits
        vma = self.find_vma(va)
        frame = self._fault_handler(vma.mapping_id)
        self._page_table[vpn] = frame
        vma.faults += 1
        self.total_faults += 1
        return frame

    def translate(self, va: int) -> int:
        """Translate one VA, faulting the page in if needed."""
        vpn = int(va) >> self.page_bits
        frame = self._page_table.get(vpn)
        if frame is None:
            frame = self._fault(vpn)
        return frame | (int(va) & (self.page_bytes - 1))

    def translate_trace(self, va: np.ndarray) -> np.ndarray:
        """Vectorised translation of a whole VA trace.

        Unique pages are resolved (faulting as needed) once; the trace is
        then translated with one gather.
        """
        va = np.asarray(va, dtype=np.uint64)
        if va.size == 0:
            return va.copy()
        vpn = va >> np.uint64(self.page_bits)
        unique_vpns, inverse = np.unique(vpn, return_inverse=True)
        frames = np.empty(unique_vpns.size, dtype=np.uint64)
        for position, page in enumerate(unique_vpns.tolist()):
            frame = self._page_table.get(page)
            if frame is None:
                frame = self._fault(page)
            frames[position] = frame
        offset = va & np.uint64(self.page_bytes - 1)
        return frames[inverse] | offset

    def page_table(self) -> list[tuple[int, int]]:
        """``(vpn, frame PA)`` of every resident page, by vpn."""
        return sorted(self._page_table.items())
