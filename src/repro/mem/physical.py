"""Physical memory: chunks, chunk groups and the global free list.

Section 6.1's physical page allocator: physical memory is carved into
2 MB chunks; chunks with the same address mapping form a *chunk group*;
a global free list holds unused chunks.  When a group needs memory it
acquires chunks from the free list (notifying the hardware CMT through
a callback).  Inside a chunk, frames are single pages tracked by a free
bitmap; when a chunk drains empty it coalesces back to the free list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.chunks import ChunkGeometry
from repro.errors import AllocationError, OutOfMemoryError

__all__ = ["Chunk", "ChunkGroup", "PhysicalMemory"]


@dataclass(eq=False)
class Chunk:
    """One physical chunk with its intra-chunk frame allocator.

    Frames are single pages, so the allocator is a free bitmap over the
    chunk's pages.  ``rotation_pages`` implements *chunk colouring*:
    frames are handed out starting at a per-mapping rotation inside the
    chunk, so heaps of different mappings do not all begin at chunk
    offset 0 (which would pile every mapping's hottest data into the
    same DRAM bank).
    """

    number: int
    geometry: ChunkGeometry
    mapping_id: int | None = None
    rotation_pages: int = 0
    free_pages: int = field(init=False)
    retired_pages: set[int] = field(init=False, default_factory=set)
    _free: np.ndarray = field(init=False, repr=False)
    _cursor: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        pages = self.geometry.pages_per_chunk
        self.free_pages = pages
        self._free = np.ones(pages, dtype=bool)
        self._cursor = self.rotation_pages % pages

    @property
    def base_pa(self) -> int:
        """First physical address of the chunk."""
        return self.geometry.chunk_base(self.number)

    def alloc_frame(self) -> int:
        """Allocate one frame; returns its physical address."""
        return int(self.alloc_frames(1)[0])

    def alloc_frames(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames; returns their physical addresses.

        Frames go out in rotated sequential order: the first ``count``
        free pages at or after the cursor, wrapping around the chunk.
        The cursor starts at ``rotation_pages`` and rests one past the
        last page handed out.
        """
        if count > self.free_pages:
            raise OutOfMemoryError(
                f"chunk {self.number} has no free frames"
                if not self.free_pages
                else f"chunk {self.number} has only {self.free_pages} free frames"
            )
        if count <= 0:
            return np.empty(0, dtype=np.uint64)
        free = np.flatnonzero(self._free)
        split = np.searchsorted(free, self._cursor)
        taken = np.concatenate((free[split:], free[:split]))[:count]
        self._free[taken] = False
        self.free_pages -= count
        self._cursor = (int(taken[-1]) + 1) % self._free.size
        return (taken.astype(np.uint64) << self.geometry.page_bits) + self.base_pa

    def free_frame(self, pa: int) -> None:
        """Free one frame by physical address."""
        offset = (pa - self.base_pa) >> self.geometry.page_bits
        if not 0 <= offset < self.geometry.pages_per_chunk:
            raise AllocationError(f"frame {pa:#x} not in chunk {self.number}")
        if self._free[offset]:
            raise AllocationError(f"block at page {offset} is not allocated")
        self._free[offset] = True
        self.free_pages += 1

    def holds(self, pa: int) -> bool:
        """True when page-aligned ``pa`` of this chunk is a live frame:
        clear in the free bitmap and not retired."""
        offset = (pa - self.base_pa) >> self.geometry.page_bits
        return not self._free[offset] and offset not in self.retired_pages

    @property
    def is_empty(self) -> bool:
        """True when nothing is allocated (retired pages count as used)."""
        return self.free_pages == self._free.size

    # -- RAS: page retirement ---------------------------------------------
    def retire_page(self, page_offset: int) -> None:
        """Permanently take one page out of service.

        The page must be free (relocate live data first); it is marked
        used, so the rotation cursor never hands it out again and the
        chunk never drains back to the free list.
        """
        if not 0 <= page_offset < self.geometry.pages_per_chunk:
            raise AllocationError(
                f"page {page_offset} outside chunk {self.number}"
            )
        if page_offset in self.retired_pages:
            return
        if not self._free[page_offset]:
            raise AllocationError(
                f"page {page_offset} of chunk {self.number} is live; "
                "relocate before retiring"
            )
        self._free[page_offset] = False
        self.free_pages -= 1
        self.retired_pages.add(page_offset)

    def live_page_offsets(self) -> list[int]:
        """Offsets of data-bearing pages (allocated and not retired)."""
        return [
            page
            for page in np.flatnonzero(~self._free).tolist()
            if page not in self.retired_pages
        ]


class ChunkGroup:
    """All chunks sharing one address mapping (one access pattern)."""

    def __init__(self, mapping_id: int):
        self.mapping_id = mapping_id
        self.chunks: list[Chunk] = []

    @property
    def free_pages(self) -> int:
        """Unallocated frames remaining."""
        return sum(chunk.free_pages for chunk in self.chunks)

    def chunk_with_space(self, pages: int = 1) -> Chunk | None:
        """First chunk with at least the requested free pages."""
        for chunk in self.chunks:
            if chunk.free_pages >= pages:
                return chunk
        return None

    def add(self, chunk: Chunk) -> None:
        """Attach a chunk to this group."""
        chunk.mapping_id = self.mapping_id
        self.chunks.append(chunk)

    def remove(self, chunk: Chunk) -> None:
        """Detach a chunk from this group."""
        self.chunks.remove(chunk)
        chunk.mapping_id = None


class PhysicalMemory:
    """The machine's physical memory, managed at chunk granularity.

    ``on_chunk_assigned(chunk_no, mapping_id)`` and
    ``on_chunk_released(chunk_no)`` callbacks let the kernel program the
    hardware CMT exactly when the paper's driver would.
    """

    def __init__(
        self,
        geometry: ChunkGeometry,
        on_chunk_assigned: Callable[[int, int], None] | None = None,
        on_chunk_released: Callable[[int], None] | None = None,
        chunk_colours: int = 8,
    ):
        if chunk_colours < 1:
            raise AllocationError("need at least one chunk colour")
        self.geometry = geometry
        self.chunk_colours = chunk_colours
        self._free_chunks: deque[int] = deque(range(geometry.num_chunks))
        self._chunks: dict[int, Chunk] = {}
        self._groups: dict[int, ChunkGroup] = {}
        self.on_chunk_assigned = on_chunk_assigned
        self.on_chunk_released = on_chunk_released
        # RAS: invoked on every freshly acquired chunk, before any frame
        # is handed out — lets a degraded machine retire unusable pages
        # in chunks that were still on the free list at repair time.
        self.new_chunk_hook: Callable[[Chunk], None] | None = None
        # Tiering: invoked with the device-global page number of every
        # newly retired page, so a tiered backend can pin it to the slow
        # tier instead of shrinking fast capacity.
        self.on_page_retired: Callable[[int], None] | None = None
        self.chunks_acquired = 0
        self.chunks_released = 0
        self.pages_retired = 0

    # -- chunk-level operations ------------------------------------------
    @property
    def free_chunk_count(self) -> int:
        """Chunks on the global free list."""
        return len(self._free_chunks)

    def group(self, mapping_id: int) -> ChunkGroup:
        """The chunk group for a mapping id (created on demand)."""
        if mapping_id not in self._groups:
            self._groups[mapping_id] = ChunkGroup(mapping_id)
        return self._groups[mapping_id]

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

    def release_chunk(self, chunk: Chunk) -> None:
        """Return an empty chunk to the global free list."""
        if not chunk.is_empty:
            raise AllocationError(
                f"chunk {chunk.number} still has allocated frames"
            )
        if chunk.mapping_id is not None:
            self.group(chunk.mapping_id).remove(chunk)
        del self._chunks[chunk.number]
        self._free_chunks.append(chunk.number)
        self.chunks_released += 1
        if self.on_chunk_released is not None:
            self.on_chunk_released(chunk.number)

    # -- frame-level operations --------------------------------------------
    def alloc_frame(self, mapping_id: int) -> int:
        """Allocate one physical frame with the given address mapping."""
        return int(self.alloc_frames(1, mapping_id)[0])

    def alloc_frames(self, count: int, mapping_id: int) -> np.ndarray:
        """Allocate ``count`` frames with one mapping, in fault order.

        Fills the group's first chunk with space, then the next,
        acquiring chunks from the free list as the group runs out, so
        frames, chunk acquisitions and their callbacks come out exactly
        as ``count`` one-frame allocations would produce them.  If
        memory runs out part-way, the raised :class:`OutOfMemoryError`
        carries the frames already allocated in ``frames``.
        """
        group = self.group(mapping_id)
        runs = [np.empty(0, dtype=np.uint64)]
        try:
            while count > 0:
                chunk = group.chunk_with_space()
                if chunk is None:
                    chunk = self.acquire_chunk(mapping_id)
                take = min(count, chunk.free_pages)
                # A chunk born full (the new-chunk hook retired every
                # page) asks for one frame, which raises.
                runs.append(chunk.alloc_frames(take or 1))
                count -= take
        except OutOfMemoryError as error:
            error.frames = np.concatenate(runs)
            raise
        return np.concatenate(runs)

    def frame_chunk(self, pa: int) -> Chunk | None:
        """The chunk owning allocated frame ``pa`` (the chunk its PA falls
        in, if live and holding the page), or None."""
        pa = int(pa)
        chunk = self._chunks.get(self.geometry.chunk_number(pa))
        if chunk is None or pa & (self.geometry.page_bytes - 1):
            return None
        return chunk if chunk.holds(pa) else None

    def free_frame(self, pa: int) -> None:
        """Free a frame; empty chunks coalesce back to the free list."""
        self.discard_frame(pa, retire=False)

    # -- RAS: retirement -------------------------------------------------------
    def _notify_retired(self, chunk_no: int, page_offsets) -> None:
        """Fan newly retired pages out to the tiering hook (global ids)."""
        if self.on_page_retired is None:
            return
        base = chunk_no * self.geometry.pages_per_chunk
        for offset in page_offsets:
            self.on_page_retired(base + int(offset))

    def discard_frame(self, pa: int, retire: bool = True) -> None:
        """Drop a frame and (by default) retire its page in place.

        Unlike :meth:`free_frame` the chunk is never auto-released to
        the free list — the page transitions allocated -> retired
        atomically, which is what page relocation off a faulty row
        needs.
        """
        chunk = self.frame_chunk(pa)
        if chunk is None:
            raise AllocationError(f"frame {pa:#x} was not allocated")
        chunk.free_frame(pa)
        if retire:
            offset = (pa - chunk.base_pa) >> self.geometry.page_bits
            chunk.retire_page(offset)
            self.pages_retired += 1
            self._notify_retired(chunk.number, (offset,))
        elif chunk.is_empty:
            self.release_chunk(chunk)

    def retire_pages(self, chunk_no: int, page_offsets) -> int:
        """Retire free pages of a live chunk; returns how many were new.

        Live (data-bearing) pages raise — the caller relocates them
        first — and already-retired pages are skipped.
        """
        chunk = self._chunks.get(chunk_no)
        if chunk is None:
            raise AllocationError(f"chunk {chunk_no} is not live")
        newly = 0
        fresh: list[int] = []
        for offset in page_offsets:
            if int(offset) in chunk.retired_pages:
                continue
            chunk.retire_page(int(offset))
            fresh.append(int(offset))
            newly += 1
        self.pages_retired += newly
        self._notify_retired(chunk_no, fresh)
        return newly

    def chunk(self, chunk_no: int) -> Chunk | None:
        """The live chunk object for a chunk number, if any."""
        return self._chunks.get(chunk_no)

    def live_chunks(self) -> list[Chunk]:
        """All chunks currently assigned to a group."""
        return [self._chunks[number] for number in sorted(self._chunks)]

    # -- accounting -----------------------------------------------------------
    def frames_in_use(self) -> int:
        """Allocated frames across all chunks."""
        return len(self.frame_owners())

    def frame_owners(self) -> list[tuple[int, int]]:
        """``(frame PA, chunk number)`` of every allocated frame, by PA."""
        return [
            (chunk.base_pa + (offset << self.geometry.page_bits), number)
            for number, chunk in sorted(self._chunks.items())
            for offset in chunk.live_page_offsets()
        ]

    def internal_fragmentation_pages(self) -> int:
        """Free pages stranded inside partially used chunks.

        The Section 4 bound: at most one partially-filled chunk per
        mapping (access pattern), so waste is bounded by the number of
        patterns, not the number of chunks.
        """
        return sum(
            chunk.free_pages for chunk in self._chunks.values()
        )

    def mapping_of_chunk(self, chunk_no: int) -> int | None:
        """Mapping id owning a chunk, or None if free."""
        chunk = self._chunks.get(chunk_no)
        return None if chunk is None else chunk.mapping_id

    def live_groups(self) -> dict[int, int]:
        """{mapping_id: chunk count} for groups that hold chunks."""
        return {
            mapping_id: len(group.chunks)
            for mapping_id, group in self._groups.items()
            if group.chunks
        }
