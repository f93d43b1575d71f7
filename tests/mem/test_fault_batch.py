"""The bulk fault path against the page-at-a-time oracle.

``AddressSpace.translate_trace`` faults each VMA's new pages with one
handler call, and physical memory allocates them in bulk on a per-chunk
page bitmap.  ``tests/mem/fault_oracle.py`` keeps the former path,
which faulted, allocated and probed the chunk cursor one page at a
time over a buddy allocator.  Both run the same operations side by
side and must leave the same page table, frame owners, chunks (in
acquisition order, with cursor, live and retired pages), chunk groups
and CMT writes, and raise the same errors at the same fault.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import ChunkGeometry, KiB
from repro.errors import OutOfMemoryError, ReproError
from repro.mem.kernel import _FaultHandler
from repro.mem.physical import Chunk, PhysicalMemory
from repro.mem.virtual import VA_BASE, VA_LIMIT, AddressSpace, VMArea

from tests.mem import fault_oracle

# 16-page chunks, so runs cross chunk boundaries often.
GEOMETRY = ChunkGeometry(total_bytes=512 * KiB, chunk_bytes=64 * KiB)
PAGE = GEOMETRY.page_bytes
PAGES = GEOMETRY.pages_per_chunk
MAPPINGS = {0: 0, 1: 1, 2: 2, 3: 3}
MODELS = {
    False: (PhysicalMemory, _FaultHandler, AddressSpace),
    True: (
        fault_oracle.PhysicalMemory,
        fault_oracle.FaultHandler,
        fault_oracle.AddressSpace,
    ),
}


class Side:
    """One memory model (bulk or oracle) with its CMT write log."""

    def __init__(self, oracle: bool, geometry=GEOMETRY, retire=None):
        physical_cls, handler_cls, space_cls = MODELS[oracle]
        self.writes: list[tuple] = []
        self.physical = physical_cls(
            geometry,
            on_chunk_assigned=lambda c, m: self.writes.append(("set", c, m)),
            on_chunk_released=lambda c: self.writes.append(("reset", c)),
        )
        if retire is not None:
            # What RAS does to chunks acquired after a repair.
            self.physical.new_chunk_hook = lambda chunk: (
                self.physical.retire_pages(chunk.number, retire(chunk.number))
            )
        handler = handler_cls(self.physical, MAPPINGS, True)
        self.space = space_cls(geometry.page_bytes, handler)
        self.unmapped: list[VMArea] = []  # munmapped VMAs, oldest first

    def state(self) -> dict:
        physical, space = self.physical, self.space
        return {
            "page_table": space.page_table(),
            "vmas": [(v.start, v.end, v.mapping_id, v.faults) for v in space.vmas],
            "total_faults": space.total_faults,
            "frame_owner": physical.frame_owners(),
            "chunks": [
                (
                    chunk.number,
                    chunk.mapping_id,
                    chunk.free_pages,
                    chunk._cursor,
                    chunk.is_empty,
                    chunk.live_page_offsets(),
                    sorted(chunk.retired_pages),
                )
                for chunk in physical._chunks.values()
            ],
            "groups": {
                mapping_id: [chunk.number for chunk in group.chunks]
                for mapping_id, group in physical._groups.items()
            },
            "free_chunks": list(physical._free_chunks),
            "writes": list(self.writes),
            "counters": (
                physical.chunks_acquired,
                physical.chunks_released,
                physical.pages_retired,
            ),
        }


def outcome(action):
    """``action()``'s result, or the type and message of its error."""
    try:
        result = action()
    except ReproError as error:
        return type(error).__name__, str(error)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tolist()
    return result


def run_both(operation, bulk: Side, oracle: Side):
    """Apply one operation to the bulk and the oracle model; compare."""
    got = outcome(lambda: operation(bulk))
    want = outcome(lambda: operation(oracle))
    assert got == want
    assert bulk.state() == oracle.state()
    return got


def page_vas(vma, pages) -> np.ndarray:
    pages = np.asarray(pages, dtype=np.uint64)
    return np.uint64(vma.start) + pages * np.uint64(PAGE)


def page_va(vma, pick: int) -> int:
    return vma.start + (pick % (vma.length // PAGE)) * PAGE


# -- operations --------------------------------------------------------------
def mmap(pages: int, mapping_id: int):
    return lambda side: side.space.mmap(pages * PAGE, mapping_id).start


def munmap(pick: int):
    def operation(side):
        vmas = side.space.vmas
        if vmas:
            vma = vmas[pick % len(vmas)]
            side.space.munmap(vma, side.physical.free_frame)
            side.unmapped.append(vma)

    return operation


STRAYS = ("below", "past", "far", "guard", "munmapped")


def stray_va(side, kind: str, pick: int, byte: int) -> int | None:
    """An address no VMA covers, of one ``kind`` (None if there is none):
    below ``VA_BASE``, just past the last VMA or far past it, in a guard
    page, or in a munmapped VMA."""
    vmas = side.space.vmas
    if kind == "below":
        return max(VA_BASE - (pick + 1) * PAGE + byte, 0)
    if kind == "past":
        return max(v.end for v in vmas) + (pick % 3) * PAGE + byte
    if kind == "far":
        return VA_LIMIT + pick * PAGE + byte
    if kind == "guard":
        return vmas[pick % len(vmas)].end + byte
    if not side.unmapped:
        return None
    return page_va(side.unmapped[pick % len(side.unmapped)], pick) + byte


def touch(
    picks: list[tuple[int, int, int]],
    guard: bool,
    strays: list[tuple[str, int, int]] = (),
):
    """A trace over existing VMAs; ``guard`` adds guard-page addresses and
    each of ``strays`` one unmapped address at a position of its pick."""

    def operation(side):
        vmas = side.space.vmas
        if not vmas:
            return None
        va = []
        for vma_pick, page_pick, byte in picks:
            vma = vmas[vma_pick % len(vmas)]
            va.append(page_va(vma, page_pick) + byte)
        if guard:
            for vma_pick, _page, byte in (picks[0], picks[-1]):
                va.insert(len(va) // 2, vmas[vma_pick % len(vmas)].end + byte)
        for kind, pick, byte in strays:
            stray = stray_va(side, kind, pick, byte)
            if stray is not None:
                va.insert(pick % (len(va) + 1), stray)
        return side.space.translate_trace(np.array(va, dtype=np.uint64))

    return operation


def translate(vma_pick: int, page_pick: int):
    def operation(side):
        vmas = side.space.vmas
        if not vmas:
            return None
        return side.space.translate(page_va(vmas[vma_pick % len(vmas)], page_pick))

    return operation


def translate_stray(kind: str, pick: int, byte: int):
    def operation(side):
        if not side.space.vmas:
            return None
        stray = stray_va(side, kind, pick, byte)
        return None if stray is None else side.space.translate(stray)

    return operation


def retire(chunk_pick: int, offsets: list[int]):
    """Retire the free pages among ``offsets`` of one live chunk."""

    def operation(side):
        chunks = side.physical.live_chunks()
        if not chunks:
            return None
        chunk = chunks[chunk_pick % len(chunks)]
        live = set(chunk.live_page_offsets())
        free = [offset for offset in offsets if offset not in live]
        return side.physical.retire_pages(chunk.number, free)

    return operation


picks = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 63), st.integers(0, PAGE - 1)),
    min_size=1,
    max_size=120,
)
strays = st.lists(
    st.tuples(
        st.sampled_from(STRAYS), st.integers(0, 63), st.integers(0, PAGE - 1)
    ),
    max_size=3,
)
operations = st.one_of(
    st.builds(mmap, st.integers(1, 40), st.integers(0, 3)),
    st.builds(munmap, st.integers(0, 7)),
    st.builds(touch, picks, st.booleans()),
    st.builds(touch, picks, st.booleans(), strays),
    st.builds(translate, st.integers(0, 7), st.integers(0, 63)),
    st.builds(
        translate_stray,
        st.sampled_from(STRAYS),
        st.integers(0, 63),
        st.integers(0, PAGE - 1),
    ),
    st.builds(
        retire, st.integers(0, 7), st.lists(st.integers(0, PAGES - 1), max_size=6)
    ),
)
# Per chunk number, the pages the new-chunk hook retires; all of them
# now and then, which leaves a chunk born full.
retire_plans = st.one_of(
    st.none(),
    st.lists(
        st.one_of(
            st.sets(st.integers(0, PAGES - 1), max_size=5),
            st.just(set(range(PAGES))),
        ),
        min_size=GEOMETRY.num_chunks,
        max_size=GEOMETRY.num_chunks,
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, min_size=1, max_size=14), retire_plans)
def test_bulk_faults_match_the_page_at_a_time_oracle(program, plan):
    retire_hook = None if plan is None else lambda number: sorted(plan[number])
    bulk = Side(oracle=False, retire=retire_hook)
    oracle = Side(oracle=True, retire=retire_hook)
    run_both(mmap(20, 1), bulk, oracle)
    for operation in program:
        run_both(operation, bulk, oracle)


# -- explicit error cases ----------------------------------------------------
def test_unmapped_address_segfaults_after_faulting_the_pages_below_it():
    bulk, oracle = Side(oracle=False), Side(oracle=True)
    starts = [run_both(mmap(pages, 2), bulk, oracle) for pages in (5, 20)]
    a_end = starts[0] + 5 * PAGE
    va = np.concatenate(
        [
            np.arange(starts[0], a_end, PAGE, dtype=np.uint64),
            np.array([a_end + 40], dtype=np.uint64),  # the guard page
            np.arange(starts[1], starts[1] + 20 * PAGE, PAGE, dtype=np.uint64),
            np.array([starts[1] + 20 * PAGE], dtype=np.uint64),
        ]
    )
    got = run_both(lambda side: side.space.translate_trace(va[::-1]), bulk, oracle)
    assert got == ("AddressError", f"segmentation fault: {a_end:#x} is unmapped")
    assert bulk.space.total_faults == 5
    for stray in (starts[0] - PAGE, starts[1] + 20 * PAGE):
        run_both(lambda side: side.space.translate(stray), bulk, oracle)
        run_both(
            lambda side: side.space.translate_trace(np.array([stray], np.uint64)),
            bulk,
            oracle,
        )


def test_out_of_memory_raises_at_the_same_fault():
    small = ChunkGeometry(total_bytes=256 * KiB, chunk_bytes=64 * KiB)
    bulk, oracle = Side(False, small), Side(True, small)
    start = run_both(mmap(70, 3), bulk, oracle)
    run_both(mmap(3, 1), bulk, oracle)
    va = page_vas(bulk.space.vmas[0], range(70))
    got = run_both(lambda side: side.space.translate_trace(va), bulk, oracle)
    assert got == ("OutOfMemoryError", "no free chunks")
    assert bulk.space.total_faults == 4 * PAGES
    assert bulk.space.frame_of(start + (4 * PAGES - 1) * PAGE) is not None
    # The other VMA's group finds no chunk either, page by page or not.
    got = run_both(
        lambda side: side.space.translate(side.space.vmas[1].start), bulk, oracle
    )
    assert got == ("OutOfMemoryError", "no free chunks")


def test_chunk_born_full_raises_instead_of_spinning():
    def retire(number):
        return list(range(PAGES)) if number == 1 else []

    bulk, oracle = Side(False, retire=retire), Side(True, retire=retire)
    run_both(mmap(40, 0), bulk, oracle)
    va = page_vas(bulk.space.vmas[0], range(40))
    got = run_both(lambda side: side.space.translate_trace(va), bulk, oracle)
    assert got == ("OutOfMemoryError", "chunk 1 has no free frames")
    assert bulk.space.total_faults == PAGES
    # The full chunk stays in its group; the next fault skips it.
    got = run_both(lambda side: side.space.translate(int(va[-1])), bulk, oracle)
    assert GEOMETRY.chunk_number(got) == 2


def test_partial_bulk_allocation_reports_its_frames():
    memory = PhysicalMemory(GEOMETRY)
    memory.new_chunk_hook = lambda chunk: (
        memory.retire_pages(chunk.number, range(PAGES)) if chunk.number else None
    )
    with pytest.raises(OutOfMemoryError) as raised:
        memory.alloc_frames(PAGES + 3, mapping_id=0)
    assert len(raised.value.frames) == PAGES
    assert sorted(raised.value.frames.tolist()) == [
        pa for pa, _chunk in memory.frame_owners()
    ]
    assert OutOfMemoryError("plain").frames == ()


# -- one chunk, frame by frame ------------------------------------------------
chunk_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, PAGES + 2)),
        st.tuples(st.just("free"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("retire"), st.integers(0, PAGES - 1)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, PAGES - 1), chunk_ops)
def test_chunk_bitmap_matches_the_buddy_cursor_probe(rotation, ops):
    bulk = Chunk(number=3, geometry=GEOMETRY, rotation_pages=rotation)
    oracle = fault_oracle.Chunk(
        number=3, geometry=GEOMETRY, rotation_pages=rotation
    )
    for kind, value in ops:
        if kind == "alloc":
            if value > oracle.free_pages:
                with pytest.raises(OutOfMemoryError):
                    bulk.alloc_frames(value)
                continue
            assert bulk.alloc_frames(value).tolist() == oracle.alloc_frames(value)
        elif kind == "free":
            pa = bulk.base_pa + value * PAGE
            assert outcome(lambda: bulk.free_frame(pa)) == outcome(
                lambda: oracle.free_frame(pa)
            )
        else:
            assert outcome(lambda: bulk.retire_page(value)) == outcome(
                lambda: oracle.retire_page(value)
            )
        assert bulk.free_pages == oracle.free_pages
        assert bulk._cursor == oracle._cursor
        assert bulk.is_empty == oracle.is_empty
        assert bulk.live_page_offsets() == oracle.live_page_offsets()
        assert bulk.retired_pages == oracle.retired_pages
