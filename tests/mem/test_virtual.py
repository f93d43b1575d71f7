"""Tests for virtual memory: VMAs, page table, demand paging."""

import numpy as np
import pytest

from repro.errors import AddressError, AllocationError
from repro.mem.virtual import AddressSpace

PAGE = 4096


class FrameSource:
    """Deterministic fake fault handler recording mapping ids."""

    def __init__(self):
        self.next_frame = 0
        self.faults: list[int] = []

    def __call__(self, mapping_id: int, count: int) -> list[int]:
        self.faults += [mapping_id] * count
        frames = list(range(self.next_frame, self.next_frame + count * PAGE, PAGE))
        self.next_frame += count * PAGE
        return frames


def make_space():
    source = FrameSource()
    return AddressSpace(page_bytes=PAGE, fault_handler=source), source


class TestMmap:
    def test_mmap_page_aligned(self):
        space, _src = make_space()
        vma = space.mmap(100)
        assert vma.start % PAGE == 0
        assert vma.length == PAGE

    def test_mmap_rounds_up(self):
        space, _src = make_space()
        vma = space.mmap(PAGE + 1)
        assert vma.length == 2 * PAGE

    def test_mmap_zero_rejected(self):
        space, _src = make_space()
        with pytest.raises(AllocationError):
            space.mmap(0)

    def test_vmas_disjoint(self):
        space, _src = make_space()
        a = space.mmap(3 * PAGE)
        b = space.mmap(PAGE)
        assert a.end <= b.start

    def test_mapping_id_stored(self):
        space, _src = make_space()
        vma = space.mmap(PAGE, mapping_id=7, name="heap")
        assert vma.mapping_id == 7
        assert vma.name == "heap"


class TestDemandPaging:
    def test_no_frames_until_touched(self):
        space, source = make_space()
        space.mmap(8 * PAGE)
        assert space.resident_pages() == 0
        assert source.faults == []

    def test_fault_allocates_with_vma_mapping_id(self):
        space, source = make_space()
        vma = space.mmap(PAGE, mapping_id=5)
        space.translate(vma.start)
        assert source.faults == [5]
        assert vma.faults == 1

    def test_second_touch_no_fault(self):
        space, source = make_space()
        vma = space.mmap(PAGE)
        space.translate(vma.start)
        space.translate(vma.start + 8)
        assert len(source.faults) == 1

    def test_unmapped_access_faults_hard(self):
        space, _src = make_space()
        with pytest.raises(AddressError):
            space.translate(0x10)

    def test_offset_preserved(self):
        space, _src = make_space()
        vma = space.mmap(PAGE)
        pa = space.translate(vma.start + 123)
        assert pa % PAGE == 123


class TestTraceTranslation:
    def test_matches_scalar_translation(self):
        space, _src = make_space()
        vma = space.mmap(16 * PAGE)
        va = vma.start + np.arange(0, 16 * PAGE, 64, dtype=np.uint64)
        trace_pa = space.translate_trace(va)
        scalar_pa = np.array([space.translate(int(v)) for v in va])
        np.testing.assert_array_equal(trace_pa, scalar_pa)

    def test_empty_trace(self):
        space, _src = make_space()
        out = space.translate_trace(np.zeros(0, dtype=np.uint64))
        assert out.size == 0

    def test_each_page_faults_once(self):
        space, source = make_space()
        vma = space.mmap(4 * PAGE)
        va = vma.start + np.arange(0, 4 * PAGE, 16, dtype=np.uint64)
        space.translate_trace(va)
        assert len(source.faults) == 4
        assert space.total_faults == 4


class TestMunmap:
    def test_frames_freed(self):
        space, _src = make_space()
        vma = space.mmap(2 * PAGE)
        space.translate(vma.start)
        space.translate(vma.start + PAGE)
        freed: list[int] = []
        space.munmap(vma, free_frame=freed.append)
        assert len(freed) == 2
        assert space.resident_pages() == 0

    def test_access_after_munmap_faults(self):
        space, _src = make_space()
        vma = space.mmap(PAGE)
        space.munmap(vma, free_frame=lambda pa: None)
        with pytest.raises(AddressError):
            space.translate(vma.start)

    def test_foreign_vma_rejected(self):
        space_a, _ = make_space()
        space_b, _ = make_space()
        vma = space_a.mmap(PAGE)
        with pytest.raises(AddressError):
            space_b.munmap(vma, free_frame=lambda pa: None)

    def test_untouched_pages_free_nothing(self):
        space, _src = make_space()
        vma = space.mmap(4 * PAGE)
        freed: list[int] = []
        space.munmap(vma, free_frame=freed.append)
        assert freed == []

    def test_frame_of(self):
        space, _src = make_space()
        vma = space.mmap(PAGE)
        assert space.frame_of(vma.start) is None
        space.translate(vma.start)
        assert space.frame_of(vma.start) is not None
