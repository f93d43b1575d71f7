"""Tests for the kernel: syscalls, CMT driver, fault path."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGeometry, MiB
from repro.core.sdam import SDAMController, identity_translator
from repro.errors import AddressError, ProfilingError
from repro.mem.kernel import Kernel

SMALL = ChunkGeometry(total_bytes=32 * MiB)


def sdam_kernel() -> Kernel:
    return Kernel(SMALL, sdam=SDAMController(SMALL))


def rolled(shift: int) -> np.ndarray:
    return np.roll(np.arange(SMALL.window_bits), shift)


class TestMappingRegistration:
    def test_add_addr_map_returns_fresh_id(self):
        kernel = sdam_kernel()
        assert kernel.add_addr_map(rolled(1)) == 1
        assert kernel.add_addr_map(rolled(2)) == 2

    def test_duplicate_mapping_shares_id(self):
        kernel = sdam_kernel()
        assert kernel.add_addr_map(rolled(1)) == kernel.add_addr_map(rolled(1))

    def test_baseline_kernel_aliases_default(self):
        kernel = Kernel(SMALL, sdam=None)
        assert kernel.add_addr_map(rolled(1)) == 0
        assert not kernel.sdam_enabled

    def test_registered_ids(self):
        kernel = sdam_kernel()
        kernel.add_addr_map(rolled(1))
        assert kernel.registered_mapping_ids() == [0, 1]

    def test_mapping_id_is_cmt_index(self):
        kernel = sdam_kernel()
        shifts = [3, 1, 3, 0, 1, 5]  # duplicates and the identity
        ids = [kernel.add_addr_map(rolled(shift)) for shift in shifts]
        assert ids == [1, 2, 1, 0, 2, 3]
        for mapping_id, shift in zip(ids, shifts):
            np.testing.assert_array_equal(
                kernel.sdam.cmt.config_of(mapping_id), rolled(shift)
            )
        assert kernel.registered_mapping_ids() == list(
            range(kernel.sdam.cmt.live_mappings)
        )


class TestFaultPath:
    def test_fault_allocates_from_mapping_group(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(1))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, 4 * MiB, mapping_id=mapping_id)
        pa = space.translate(vma.start)
        chunk = SMALL.chunk_number(pa)
        assert kernel.physical.mapping_of_chunk(chunk) == mapping_id

    def test_cmt_programmed_on_chunk_acquire(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(3))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB, mapping_id=mapping_id)
        pa = space.translate(vma.start)
        chunk = SMALL.chunk_number(pa)
        assert kernel.sdam.cmt.mapping_index_of(chunk) == mapping_id

    def test_unregistered_mapping_rejected(self):
        kernel = sdam_kernel()
        space = kernel.spawn()
        with pytest.raises(ProfilingError):
            kernel.sys_mmap(space, MiB, mapping_id=42)

    def test_fault_on_unregistered_mapping_rejected(self):
        # An id the CMT holds but add_addr_map never handed out.
        kernel = sdam_kernel()
        kernel.sdam.register_mapping(rolled(4))
        space = kernel.spawn()
        with pytest.raises(ProfilingError):
            kernel.sys_mmap(space, MiB, mapping_id=1)
        vma = space.mmap(MiB, mapping_id=1)  # bypasses the syscall check
        with pytest.raises(ProfilingError, match="never registered"):
            space.translate(vma.start)

    def test_munmap_releases_chunk_and_cmt(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(2))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB, mapping_id=mapping_id)
        pa = space.translate(vma.start)
        chunk = SMALL.chunk_number(pa)
        kernel.sys_munmap(space, vma)
        assert kernel.sdam.cmt.mapping_index_of(chunk) == 0
        assert kernel.physical.free_chunk_count == SMALL.num_chunks


class TestPageRelocation:
    """Relocation, remap and reverse lookup on a page table that
    ``translate_trace`` filled."""

    PAGE = SMALL.page_bytes

    def faulted(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(5))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB, mapping_id=mapping_id)
        kernel.sys_mmap(space, MiB, mapping_id=mapping_id)  # never touched
        va = vma.start + np.arange(0, MiB, self.PAGE // 4, dtype=np.uint64)
        return kernel, space, vma, va, space.translate_trace(va)

    def test_relocate_remap_and_reverse_lookup(self):
        kernel, space, vma, va, pa = self.faulted()
        page = 37
        page_va = vma.start + page * self.PAGE
        vpn = page_va >> SMALL.page_bits
        old = space.frame_of(page_va)
        assert old == int(pa[4 * page])
        assert space.vpn_of_frame(old) == vpn
        new = kernel.relocate_frame(old)
        assert new not in (None, old)
        assert kernel.physical.frame_chunk(new).mapping_id == vma.mapping_id
        assert space.frame_of(page_va + 9) == new
        assert space.vpn_of_frame(new) == vpn
        assert space.vpn_of_frame(old) is None
        assert kernel.physical.frame_chunk(old) is None
        old_chunk = kernel.physical.chunk(SMALL.chunk_number(old))
        assert (old - old_chunk.base_pa) // self.PAGE in old_chunk.retired_pages
        expected = pa.copy()
        expected[4 * page : 4 * page + 4] += np.uint64(new - old)
        np.testing.assert_array_equal(space.translate_trace(va), expected)
        assert space.total_faults == MiB // self.PAGE
        fresh = kernel.physical.alloc_frame(vma.mapping_id)
        assert space.remap(vpn, fresh) == new
        assert space.translate(page_va + 9) == fresh + 9
        assert space.vpn_of_frame(new) is None
        with pytest.raises(ProfilingError):
            kernel.relocate_frame(old)  # retired, no longer allocated
        with pytest.raises(ProfilingError):
            kernel.relocate_frame(fresh + 8)  # not a frame address

    def test_remap_needs_a_resident_page(self):
        kernel, space, vma, _va, _pa = self.faulted()
        frame = kernel.physical.alloc_frame(vma.mapping_id)
        for va in (vma.end, vma.end + self.PAGE, vma.start - self.PAGE, 0):
            with pytest.raises(AddressError):
                space.remap(va >> SMALL.page_bits, frame)
        assert space.vpn_of_frame(frame) is None

    def test_relocating_an_unmapped_frame_retires_it(self):
        kernel, space, vma, _va, _pa = self.faulted()
        frame = kernel.physical.alloc_frame(vma.mapping_id)
        in_use = kernel.physical.frames_in_use()
        assert kernel.relocate_frame(frame) is None
        assert kernel.physical.frame_chunk(frame) is None
        assert kernel.physical.frames_in_use() == in_use - 1
        assert space.resident_pages() == MiB // self.PAGE


class TestTranslationPipeline:
    def test_identity_for_baseline(self):
        kernel = Kernel(SMALL, sdam=None)
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB)
        va = vma.start + np.arange(0, MiB, 4096, dtype=np.uint64)
        ha = kernel.translate_to_hardware(space, va)
        pa = space.translate_trace(va)
        np.testing.assert_array_equal(ha, pa)

    def test_baseline_kernels_share_the_identity_translator(self):
        shared = identity_translator(SMALL.address_bits)
        assert Kernel(SMALL, sdam=None).address_translator is shared
        assert Kernel(SMALL, sdam=None).address_translator is shared
        sdam = sdam_kernel()
        assert sdam.address_translator is sdam.sdam

    def test_sdam_applies_chunk_mapping(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(4))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, 2 * MiB, mapping_id=mapping_id)
        va = vma.start + np.arange(0, 2 * MiB, 64, dtype=np.uint64)
        pa = space.translate_trace(va)
        ha = kernel.translate_to_hardware(space, va)
        assert not np.array_equal(ha, pa)
        # Chunk numbers never change (Section 4).
        np.testing.assert_array_equal(
            SMALL.chunk_number(ha), SMALL.chunk_number(pa)
        )

    def test_distinct_mappings_in_one_process(self):
        kernel = sdam_kernel()
        id_a = kernel.add_addr_map(rolled(1))
        id_b = kernel.add_addr_map(rolled(7))
        space = kernel.spawn()
        vma_a = kernel.sys_mmap(space, MiB, mapping_id=id_a)
        vma_b = kernel.sys_mmap(space, MiB, mapping_id=id_b)
        pa_a = space.translate(vma_a.start)
        pa_b = space.translate(vma_b.start)
        assert SMALL.chunk_number(pa_a) != SMALL.chunk_number(pa_b)


class TestSpawn:
    def test_pids_unique(self):
        kernel = sdam_kernel()
        assert kernel.spawn().pid != kernel.spawn().pid
