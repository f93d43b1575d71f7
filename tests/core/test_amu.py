"""Unit tests for the AMU crossbar model (Section 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amu import AddressMappingUnit, amu_area_report
from repro.core.chunks import ChunkGeometry
from repro.errors import MappingError


class TestConfigCodec:
    def test_prototype_config_bits(self):
        # 15 offset bits x ceil(log2 15) = 60 bits (Section 5.3).
        amu = AddressMappingUnit(15)
        assert amu.select_bits == 4
        assert amu.config_bits == 60

    @given(perm=st.permutations(list(range(15))))
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_roundtrip(self, perm):
        amu = AddressMappingUnit(15)
        word = amu.encode_config(perm)
        assert word < 1 << amu.config_bits
        np.testing.assert_array_equal(amu.decode_config(word), perm)

    def test_rejects_non_permutation(self):
        amu = AddressMappingUnit(4)
        with pytest.raises(MappingError):
            amu.encode_config([0, 0, 1, 2])

    def test_rejects_wrong_length(self):
        amu = AddressMappingUnit(4)
        with pytest.raises(MappingError):
            amu.encode_config([0, 1, 2])

    def test_too_narrow_window_rejected(self):
        with pytest.raises(MappingError):
            AddressMappingUnit(1)


class TestDatapath:
    def test_identity_apply(self):
        amu = AddressMappingUnit(8)
        offsets = np.arange(256, dtype=np.uint64)
        operator = amu.window_operator(np.arange(8))
        np.testing.assert_array_equal(operator.apply(offsets), offsets)

    def test_reverse_permutation(self):
        amu = AddressMappingUnit(4)
        perm = [3, 2, 1, 0]
        assert amu.window_operator(perm).apply(0b0001) == 0b1000

    def test_full_mapping_keeps_boundaries(self):
        geometry = ChunkGeometry()
        amu = AddressMappingUnit(geometry.window_bits)
        rng = np.random.default_rng(5)
        perm = rng.permutation(geometry.window_bits)
        mapping = amu.full_mapping(perm, geometry)
        low, high = geometry.window_slice()
        source = mapping.permutation_source()
        np.testing.assert_array_equal(source[low:high], perm + low)
        outside = np.r_[0:low, high:source.size]
        np.testing.assert_array_equal(source[outside], outside)
        # Chunk number and line offset survive.
        pa = (123 << geometry.chunk_shift) | 0b101010
        ha = mapping.apply(pa)
        assert ha >> geometry.chunk_shift == 123
        assert ha & 0b111111 == 0b101010

    def test_full_mapping_window_mismatch(self):
        geometry = ChunkGeometry()
        amu = AddressMappingUnit(8)
        with pytest.raises(MappingError):
            amu.full_mapping(np.arange(8), geometry)

    def test_switch_count(self):
        assert AddressMappingUnit(15).switch_count == 225


class TestAreaModel:
    def test_report_near_paper_fraction(self):
        report = amu_area_report()
        # Table 3: AMU = 0.5 % of VU37P logic (with 8 duplicates).
        assert 0.002 < report["logic_fraction"] < 0.008
        assert report["config_bits"] == 60
        assert report["duplicates"] == 8

    def test_single_amu_is_cheaper(self):
        one = amu_area_report(duplicates=1)
        eight = amu_area_report(duplicates=8)
        assert one["luts"] * 8 == pytest.approx(eight["luts"])
