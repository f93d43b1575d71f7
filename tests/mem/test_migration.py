"""Tests for chunk remapping and live migration."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGeometry, MiB
from repro.core.sdam import SDAMController
from repro.errors import (
    AllocationError,
    CMTError,
    DeviceFaultError,
    OutOfMemoryError,
)
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.mem.migration import ChunkMigrator

SMALL = ChunkGeometry(total_bytes=32 * MiB)


def setup_machine():
    kernel = Kernel(SMALL, sdam=SDAMController(SMALL))
    space = kernel.spawn()
    malloc = MappingAwareAllocator(kernel, space)
    migrator = ChunkMigrator(kernel)
    return kernel, space, malloc, migrator


def rolled(shift: int) -> np.ndarray:
    return np.roll(np.arange(SMALL.window_bits), shift)


class TestFreeCapacity:
    """A free chunk carries no data: moving it into a mapping's group is
    an acquire plus one CMT write, with nothing to copy."""

    def test_remap_free_chunks_is_cheap(self):
        kernel, _space, malloc, _migrator = setup_machine()
        mapping_id = malloc.add_addr_map(rolled(1))
        chunks = [kernel.physical.acquire_chunk(mapping_id) for _ in range(3)]
        assert kernel.physical.live_groups()[mapping_id] == 3
        for chunk in chunks:
            assert kernel.sdam.cmt.mapping_index_of(chunk.number) == mapping_id

    def test_stops_at_exhaustion(self):
        kernel, _space, malloc, _migrator = setup_machine()
        mapping_id = malloc.add_addr_map(rolled(1))
        for _ in range(SMALL.num_chunks):
            kernel.physical.acquire_chunk(mapping_id)
        assert kernel.physical.free_chunk_count == 0
        with pytest.raises(OutOfMemoryError):
            kernel.physical.acquire_chunk(mapping_id)


class TestLiveMigration:
    def populate(self, kernel, space, malloc, mapping_id=0):
        va = malloc.malloc(1 * MiB, mapping_id=mapping_id, tag="data")
        # Touch every page so frames exist.
        step = SMALL.page_bytes
        addresses = np.arange(va, va + 1 * MiB, step, dtype=np.uint64)
        space.translate_trace(addresses)
        pa = space.translate(va)
        return SMALL.chunk_number(pa)

    def test_migration_moves_mapping(self):
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(2))
        chunk_no = self.populate(kernel, space, malloc)
        report = migrator.migrate_chunk(chunk_no, new_mapping)
        assert report.old_mapping == 0
        assert report.new_mapping == new_mapping
        assert kernel.sdam.cmt.mapping_index_of(chunk_no) == new_mapping

    def test_copy_cost_scales_with_resident_data(self):
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(3))
        chunk_no = self.populate(kernel, space, malloc)
        report = migrator.migrate_chunk(chunk_no, new_mapping)
        assert report.lines_copied > 0
        assert report.cost_ns > 0
        # Each line is read once and written once.
        pages = 1 * MiB // SMALL.page_bytes
        assert report.lines_copied == pages * (SMALL.page_bytes // 64)

    def test_noop_migration_free(self):
        kernel, space, malloc, migrator = setup_machine()
        chunk_no = self.populate(kernel, space, malloc)
        report = migrator.migrate_chunk(chunk_no, 0)
        assert report.cost_ns == 0.0
        assert report.lines_copied == 0

    def test_unknown_chunk_rejected(self):
        _kernel, _space, malloc, migrator = setup_machine()
        malloc.add_addr_map(rolled(1))
        with pytest.raises(AllocationError):
            migrator.migrate_chunk(5, 1)

    def test_group_bookkeeping_follows(self):
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(4))
        chunk_no = self.populate(kernel, space, malloc)
        migrator.migrate_chunk(chunk_no, new_mapping)
        assert kernel.physical.mapping_of_chunk(chunk_no) == new_mapping

    def test_migrate_group(self):
        """Moving every chunk of a group empties it into the target."""
        kernel, space, malloc, migrator = setup_machine()
        source = malloc.add_addr_map(rolled(1))
        target = malloc.add_addr_map(rolled(5))
        self.populate(kernel, space, malloc, mapping_id=source)
        reports = [
            migrator.migrate_chunk(chunk.number, target)
            for chunk in list(kernel.physical.group(source).chunks)
        ]
        assert reports
        assert all(r.new_mapping == target for r in reports)
        assert kernel.physical.live_groups().get(source) is None

    def test_translation_consistent_after_migration(self):
        """Data addressed through the new mapping is still one-to-one."""
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(6))
        chunk_no = self.populate(kernel, space, malloc)
        migrator.migrate_chunk(chunk_no, new_mapping)
        base = SMALL.chunk_base(chunk_no)
        pa = np.uint64(base) + np.arange(0, SMALL.chunk_bytes, 64, dtype=np.uint64)
        ha = kernel.sdam.translate(pa)
        assert np.unique(ha).size == pa.size


class TestErrorPaths:
    def populate(self, kernel, space, malloc, mapping_id=0):
        va = malloc.malloc(1 * MiB, mapping_id=mapping_id, tag="data")
        step = SMALL.page_bytes
        addresses = np.arange(va, va + 1 * MiB, step, dtype=np.uint64)
        space.translate_trace(addresses)
        return SMALL.chunk_number(space.translate(va))

    def test_mid_copy_failure_rolls_back_cmt(self):
        """A failed copy must never leave the chunk half-switched."""
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(2))
        chunk_no = self.populate(kernel, space, malloc)
        calls = {"n": 0}

        def exploding_copy(_pa, _reads, _writes):
            calls["n"] += 1
            raise OSError("device wedged mid-copy")

        with pytest.raises(OSError):
            migrator.migrate_chunk(chunk_no, new_mapping, on_copy=exploding_copy)
        assert calls["n"] == 1
        assert kernel.sdam.cmt.mapping_index_of(chunk_no) == 0
        assert kernel.physical.mapping_of_chunk(chunk_no) == 0
        # The chunk still translates one-to-one under the old mapping.
        base = SMALL.chunk_base(chunk_no)
        pa = np.uint64(base) + np.arange(
            0, SMALL.chunk_bytes, 64, dtype=np.uint64
        )
        assert np.unique(kernel.sdam.translate(pa)).size == pa.size

    def test_library_error_rolls_back_cmt(self):
        """Structured library faults get the same rollback as OSError."""
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(3))
        chunk_no = self.populate(kernel, space, malloc)

        def device_fault(_pa, _reads, _writes):
            raise DeviceFaultError("modeled bank offline mid-copy")

        with pytest.raises(DeviceFaultError):
            migrator.migrate_chunk(chunk_no, new_mapping, on_copy=device_fault)
        assert kernel.sdam.cmt.mapping_index_of(chunk_no) == 0
        assert kernel.physical.mapping_of_chunk(chunk_no) == 0

    def test_programming_error_propagates_unmasked(self):
        """A bug in the copy callback is not a copy fault: TypeError
        escapes the narrowed handler instead of being dressed up as a
        tidy rolled-back migration."""
        kernel, space, malloc, migrator = setup_machine()
        new_mapping = malloc.add_addr_map(rolled(4))
        chunk_no = self.populate(kernel, space, malloc)

        def buggy_copy(_pa, _reads, _writes):
            return None + 1  # deliberate TypeError

        with pytest.raises(TypeError):
            migrator.migrate_chunk(chunk_no, new_mapping, on_copy=buggy_copy)
        # No rollback happened — the honest (half-switched) state is
        # left for the crash dump rather than silently papered over.
        assert kernel.sdam.cmt.mapping_index_of(chunk_no) == new_mapping

    def test_zero_live_lines_is_a_pure_table_write(self):
        kernel, _space, malloc, migrator = setup_machine()
        source = malloc.add_addr_map(rolled(1))
        target = malloc.add_addr_map(rolled(2))
        chunk = kernel.physical.acquire_chunk(source)
        copies = []
        report = migrator.migrate_chunk(
            chunk.number, target, on_copy=lambda *a: copies.append(a)
        )
        assert report.lines_copied == 0
        assert report.cost_ns == 0.0
        assert copies == []  # no data, no copy callback
        assert kernel.sdam.cmt.mapping_index_of(chunk.number) == target

    def test_copy_cost_is_deterministic(self):
        costs = []
        for _ in range(2):
            kernel, space, malloc, migrator = setup_machine()
            new_mapping = malloc.add_addr_map(rolled(3))
            chunk_no = self.populate(kernel, space, malloc)
            report = migrator.migrate_chunk(chunk_no, new_mapping)
            costs.append((report.lines_copied, report.cost_ns))
        assert costs[0] == costs[1]


class TestPolicy:
    def test_requires_sdam(self):
        kernel = Kernel(SMALL, sdam=None)
        with pytest.raises(CMTError):
            ChunkMigrator(kernel)
