"""Unit tests for the two-level Chunk Mapping Table (Section 5.3)."""

import numpy as np
import pytest

from repro.core.cmt import ChunkMappingTable, cmt_storage_report
from repro.errors import CMTError


def make_table(**overrides) -> ChunkMappingTable:
    defaults = dict(num_chunks=64, window_bits=15, max_mappings=8)
    defaults.update(overrides)
    return ChunkMappingTable(**defaults)


class TestInterning:
    def test_identity_preinterned_at_zero(self):
        table = make_table()
        np.testing.assert_array_equal(table.config_of(0), np.arange(15))
        assert table.live_mappings == 1

    def test_interning_deduplicates(self):
        table = make_table()
        perm = np.roll(np.arange(15), 1)
        first = table.intern_mapping(perm)
        second = table.intern_mapping(perm)
        assert first == second
        assert table.live_mappings == 2

    def test_table_overflow(self):
        table = make_table(max_mappings=2)
        table.intern_mapping(np.roll(np.arange(15), 1))
        with pytest.raises(CMTError):
            table.intern_mapping(np.roll(np.arange(15), 2))

    def test_invalid_permutation_rejected(self):
        with pytest.raises(Exception):
            make_table().intern_mapping([0] * 15)

    def test_config_of_unknown(self):
        with pytest.raises(CMTError):
            make_table().config_of(5)


class TestChunkBinding:
    def test_default_binding_is_identity(self):
        table = make_table()
        assert table.mapping_index_of(3) == 0

    def test_set_and_lookup(self):
        table = make_table()
        idx = table.intern_mapping(np.roll(np.arange(15), 3))
        table.set_chunk(10, idx)
        assert table.mapping_index_of(10) == idx

    def test_vectorised_lookup(self):
        table = make_table()
        idx = table.intern_mapping(np.roll(np.arange(15), 3))
        table.set_chunk(1, idx)
        chunks = np.array([0, 1, 2])
        np.testing.assert_array_equal(table.mapping_index_of(chunks), [0, idx, 0])

    def test_reset_chunk(self):
        table = make_table()
        idx = table.intern_mapping(np.roll(np.arange(15), 3))
        table.set_chunk(4, idx)
        table.reset_chunk(4)
        assert table.mapping_index_of(4) == 0

    def test_unbound_index_rejected(self):
        with pytest.raises(CMTError):
            make_table().set_chunk(0, 5)

    def test_chunk_out_of_range(self):
        table = make_table()
        with pytest.raises(CMTError):
            table.set_chunk(64, 0)
        with pytest.raises(CMTError):
            table.mapping_index_of(64)
        with pytest.raises(CMTError):
            table.mapping_index_of(np.array([0, 64]))

    def test_driver_writes_counted(self):
        table = make_table()
        before = table.driver_writes
        idx = table.intern_mapping(np.roll(np.arange(15), 1))
        table.set_chunk(0, idx)
        assert table.driver_writes == before + 2


class TestStorageAccounting:
    def test_paper_sizing_example(self):
        """128 GB socket, 2 MB chunks: 64k x 8b + 256 x 60b ~ 68 KB."""
        report = cmt_storage_report()
        assert report["num_chunks"] == 65536
        assert report["index_bits"] == 8
        assert report["config_bits"] == 60
        assert 65 < report["two_level_kb"] < 70  # paper: 67.94 KB
        assert 480 < report["flat_kb"] < 500  # paper: 491 KB
        assert report["saving_factor"] > 7

    def test_two_level_always_wins_at_scale(self):
        table = make_table(num_chunks=4096, max_mappings=256)
        assert table.storage_bits_two_level() < table.storage_bits_flat()

    def test_lookup_latency_negligible_vs_hbm(self):
        # Section 5.3: 6 ns SRAM vs >130 ns HBM access.
        assert make_table().lookup_latency_ns < 130 / 10


class TestValidation:
    def test_zero_chunks_rejected(self):
        with pytest.raises(CMTError):
            ChunkMappingTable(num_chunks=0, window_bits=15)

    def test_zero_mappings_rejected(self):
        with pytest.raises(CMTError):
            ChunkMappingTable(num_chunks=4, window_bits=15, max_mappings=0)


class TestShadowAndFaultHooks:
    def pair(self):
        """A live table plus a shadow that saw the same driver writes."""
        table, shadow = make_table(), make_table()
        perm = np.roll(np.arange(15), 3)
        for t in (table, shadow):
            index = t.intern_mapping(perm)
            t.set_chunk(5, index)
        return table, shadow

    def test_diff_clean_tables_empty(self):
        table, shadow = self.pair()
        assert table.diff(shadow) == {"entries": [], "configs": []}

    def test_flip_entry_bit_shows_in_diff(self):
        table, shadow = self.pair()
        table.flip_entry_bit(5, 0)
        assert table.diff(shadow) == {"entries": [5], "configs": []}

    def test_flip_config_bit_shows_in_diff(self):
        table, shadow = self.pair()
        table.flip_config_bit(1, lane=2, bit=3)
        assert table.diff(shadow)["configs"] == [1]

    def test_flips_count_no_driver_writes(self):
        table, shadow = self.pair()
        before = table.driver_writes
        table.flip_entry_bit(5, 1)
        table.flip_config_bit(1, lane=0, bit=0)
        assert table.driver_writes == before

    def test_restore_from_rolls_back_and_rebuilds_intern(self):
        table, shadow = self.pair()
        table.flip_entry_bit(5, 2)
        table.flip_config_bit(1, lane=4, bit=1)
        repaired = table.restore_from(shadow)
        assert repaired == 2
        assert table.diff(shadow) == {"entries": [], "configs": []}
        # The intern map works again: re-interning dedups, not appends.
        perm = np.roll(np.arange(15), 3)
        assert table.intern_mapping(perm) == 1

    def test_out_of_range_flips_rejected(self):
        table, _shadow = self.pair()
        with pytest.raises(CMTError):
            table.flip_entry_bit(1000, 0)
        with pytest.raises(CMTError):
            table.flip_entry_bit(0, 16)
        with pytest.raises(CMTError):
            table.flip_config_bit(99, 0, 0)
        with pytest.raises(CMTError):
            table.flip_config_bit(1, 99, 0)

    def test_shape_mismatch_rejected(self):
        table, _ = self.pair()
        with pytest.raises(CMTError):
            table.diff(make_table(num_chunks=32))

