"""Tests for bit-shuffle mapping selection from flip-rate profiles."""

import numpy as np
import pytest

from repro.core.bitshuffle import (
    rank_bits_by_flip_rate,
    select_global_mapping,
    select_window_permutation,
)
from repro.core.chunks import ChunkGeometry
from repro.errors import MappingError
from repro.hbm.config import hbm2_config

GEO = ChunkGeometry()
LAYOUT = hbm2_config().layout()


class TestRanking:
    def test_hottest_first(self):
        rates = np.array([0.1, 0.9, 0.5])
        assert rank_bits_by_flip_rate(rates).tolist() == [1, 2, 0]

    def test_ties_break_toward_low_bits(self):
        rates = np.array([0.5, 0.5, 0.9])
        assert rank_bits_by_flip_rate(rates).tolist() == [2, 0, 1]


class TestWindowSelection:
    def test_hot_bits_become_channel_bits(self):
        # Window bits 10..14 (addr bits 16..20) are the hottest.
        rates = np.zeros(GEO.window_bits)
        rates[10:15] = 1.0
        perm = select_window_permutation(rates, LAYOUT, GEO)
        channel = LAYOUT["channel"]
        low, _high = GEO.window_slice()
        channel_sources = perm[channel.shift - low : channel.end - low]
        assert sorted(channel_sources.tolist()) == [10, 11, 12, 13, 14]

    def test_result_is_window_permutation(self):
        rng = np.random.default_rng(2)
        rates = rng.random(GEO.window_bits)
        perm = select_window_permutation(rates, LAYOUT, GEO)
        assert sorted(perm.tolist()) == list(range(GEO.window_bits))

    def test_uniform_rates_give_streaming_friendly_identityish(self):
        # With all-equal rates, ties break toward low bits, so channel
        # keeps the lowest (finest-grained) bits: the identity choice.
        rates = np.ones(GEO.window_bits)
        perm = select_window_permutation(rates, LAYOUT, GEO)
        assert perm[:5].tolist() == [0, 1, 2, 3, 4]

    def test_wrong_length_rejected(self):
        with pytest.raises(MappingError):
            select_window_permutation(np.ones(3), LAYOUT, GEO)

    def test_stride16_pattern_maps_to_all_channels(self):
        """The motivating example: stride-16 flips addr bits 10+."""
        stride_lines = 16
        pa = np.arange(4096, dtype=np.uint64) * np.uint64(stride_lines * 64)
        pa %= np.uint64(2 * 1024 * 1024)
        bits = (pa[:, None] >> np.arange(6, 21, dtype=np.uint64)) & np.uint64(1)
        rates = np.abs(np.diff(bits, axis=0)).mean(axis=0)
        perm = select_window_permutation(rates, LAYOUT, GEO)
        from repro.core.amu import AddressMappingUnit

        amu = AddressMappingUnit(GEO.window_bits)
        mapping = amu.full_mapping(perm, GEO)
        ha = mapping.apply(pa)
        channels = (ha >> np.uint64(6)) & np.uint64(31)
        assert np.unique(channels).size == 32


class TestGlobalSelection:
    def test_full_width_permutation(self):
        rng = np.random.default_rng(3)
        rates = rng.random(LAYOUT.width)
        mapping = select_global_mapping(rates, LAYOUT)
        assert mapping.is_permutation()
        source = mapping.permutation_source()
        assert sorted(source.tolist()) == list(range(LAYOUT.width))

    def test_line_offset_bits_never_move(self):
        rng = np.random.default_rng(4)
        rates = rng.random(LAYOUT.width)
        mapping = select_global_mapping(rates, LAYOUT, line_bits=6)
        assert mapping.permutation_source()[:6].tolist() == [0, 1, 2, 3, 4, 5]

    def test_hot_high_bits_take_channel(self):
        rates = np.zeros(LAYOUT.width)
        rates[20:25] = 1.0
        mapping = select_global_mapping(rates, LAYOUT)
        channel = LAYOUT["channel"]
        sources = mapping.permutation_source()[channel.shift : channel.end]
        assert sorted(sources.tolist()) == [20, 21, 22, 23, 24]

    def test_wrong_length_rejected(self):
        with pytest.raises(MappingError):
            select_global_mapping(np.ones(5), LAYOUT)
