"""Tests for the hashing-based mapping (BS+HM baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmatrix import BitOperator
from repro.core.hashing import default_hash_mapping, hash_mapping
from repro.core.sdam import GlobalMappingTranslator
from repro.errors import MappingError
from repro.hbm.config import hbm2_config

LAYOUT = hbm2_config().layout()
CHANNEL = LAYOUT["channel"]


def channels_of(mapping, pa: np.ndarray) -> np.ndarray:
    ha = mapping.apply(pa)
    return CHANNEL.extract(ha)


class TestHashMapping:
    def test_explicit_fold(self):
        mapping = hash_mapping(LAYOUT, {0: [16]})
        base = 1 << 16
        assert channels_of(mapping, np.array([0], dtype=np.uint64))[0] == 0
        assert channels_of(mapping, np.array([base], dtype=np.uint64))[0] == 1

    def test_invertible(self):
        mapping = default_hash_mapping(LAYOUT)
        rng = np.random.default_rng(0)
        pa = rng.integers(0, 1 << 33, 512, dtype=np.uint64)
        roundtrip = mapping.invert().apply(mapping.apply(pa))
        np.testing.assert_array_equal(roundtrip, pa)
        # I + N with N @ N = 0: every fold is its own inverse.
        assert mapping.compose(mapping).is_identity()

    def test_channel_bit_out_of_range(self):
        with pytest.raises(MappingError):
            hash_mapping(LAYOUT, {9: [16]})

    def test_fold_source_out_of_range(self):
        with pytest.raises(MappingError):
            hash_mapping(LAYOUT, {0: [40]})

    def test_channel_into_channel_rejected(self):
        with pytest.raises(MappingError):
            hash_mapping(LAYOUT, {0: [7]})

    def test_singular_fold_rejected_by_translator(self):
        # Folding a bit into itself cancels it: HA bit 6 reads nothing.
        fold = BitOperator.from_xor_terms(LAYOUT.width, {6: [6]})
        assert not fold.is_bijective()
        with pytest.raises(MappingError):
            GlobalMappingTranslator(fold)


class TestDefaultHash:
    def test_covers_wide_stride_range(self):
        """Strides whose hot bits are inside the reach spread channels."""
        mapping = default_hash_mapping(LAYOUT)
        for stride_lines in (1, 2, 4, 8, 16, 32, 64, 128):
            pa = np.arange(1024, dtype=np.uint64) * np.uint64(stride_lines * 64)
            used = np.unique(channels_of(mapping, pa)).size
            assert used >= 16, f"stride {stride_lines} used only {used} channels"

    def test_has_residual_weakness(self):
        """Some access pattern still underutilises channels (Fig. 11b)."""
        mapping = default_hash_mapping(LAYOUT, reach_bits=20)
        # Stride far above the reach: only untouched high bits flip.
        stride = 1 << 27
        pa = np.arange(64, dtype=np.uint64) * np.uint64(stride)
        used = np.unique(channels_of(mapping, pa)).size
        assert used <= 2

    def test_identity_below_channel(self):
        mapping = default_hash_mapping(LAYOUT)
        # Line-offset bits pass through untouched.
        pa = np.arange(64, dtype=np.uint64)
        ha = mapping.apply(pa)
        np.testing.assert_array_equal(ha & np.uint64(63), pa & np.uint64(63))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_bijective_sample(self, seed):
        mapping = default_hash_mapping(LAYOUT)
        rng = np.random.default_rng(seed)
        pa = np.unique(rng.integers(0, 1 << 33, 1000, dtype=np.uint64))
        assert np.unique(mapping.apply(pa)).size == pa.size
