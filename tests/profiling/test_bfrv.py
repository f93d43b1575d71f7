"""Tests for bit-flip-rate vectors (Equation 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.profiling.bfrv import (
    DEGENERATE_CONSTANT,
    DEGENERATE_SHORT,
    bit_flip_rate_vector,
    flip_counts,
    window_flip_rates,
)


def stride_addresses(stride_lines: int, count: int = 512) -> np.ndarray:
    return np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * 64)


class TestBFRV:
    def test_streaming_hottest_bit_is_line_bit(self):
        rates = bit_flip_rate_vector(stride_addresses(1), num_bits=20)
        assert rates.argmax() == 6  # bit 6 flips every access

    def test_stride_shifts_peak_left_to_right(self):
        """Fig. 3(b): increasing stride moves the flip peak upward."""
        peaks = [
            int(bit_flip_rate_vector(stride_addresses(s), num_bits=24).argmax())
            for s in (1, 2, 4, 8, 16)
        ]
        assert peaks == [6, 7, 8, 9, 10]

    def test_flip_rate_halves_up_the_carry_chain(self):
        rates = bit_flip_rate_vector(stride_addresses(1), num_bits=10)
        assert rates[6] == pytest.approx(1.0, abs=0.01)
        assert rates[7] == pytest.approx(0.5, abs=0.01)
        assert rates[8] == pytest.approx(0.25, abs=0.02)

    def test_constant_trace_all_zero(self):
        rates = bit_flip_rate_vector(np.full(100, 0x1234, dtype=np.uint64), 16)
        assert (rates == 0).all()

    def test_short_trace(self):
        assert (bit_flip_rate_vector(np.array([1], dtype=np.uint64), 8) == 0).all()
        assert (bit_flip_rate_vector(np.zeros(0, dtype=np.uint64), 8) == 0).all()

    def test_bit_offset(self):
        rates = bit_flip_rate_vector(stride_addresses(1), num_bits=5, bit_offset=6)
        assert rates[0] == pytest.approx(1.0, abs=0.01)

    def test_invalid_bits(self):
        with pytest.raises(ProfilingError):
            bit_flip_rate_vector(stride_addresses(1), num_bits=0)


class TestDegenerateFlags:
    def test_short_trace_flagged(self):
        for trace in (np.zeros(0, dtype=np.uint64), np.array([1], dtype=np.uint64)):
            flags = {}
            rates = bit_flip_rate_vector(trace, 8, flags=flags)
            assert (rates == 0).all()
            assert flags["degenerate"] == DEGENERATE_SHORT

    def test_constant_trace_flagged(self):
        flags = {}
        rates = bit_flip_rate_vector(
            np.full(32, 0x40, dtype=np.uint64), 8, flags=flags
        )
        assert (rates == 0).all()
        assert flags["degenerate"] == DEGENERATE_CONSTANT

    def test_healthy_trace_clears_stale_flag(self):
        flags = {"degenerate": DEGENERATE_SHORT}
        bit_flip_rate_vector(stride_addresses(1), 8, flags=flags)
        assert flags["degenerate"] is None

    def test_window_flip_rates_forwards_flags(self):
        flags = {}
        window_flip_rates(np.zeros(1, dtype=np.uint64), (6, 21), flags=flags)
        assert flags["degenerate"] == DEGENERATE_SHORT

    def test_flags_optional(self):
        # The default path stays flag-free and silent on degeneracy.
        assert (
            bit_flip_rate_vector(np.zeros(0, dtype=np.uint64), 8) == 0
        ).all()


class TestFlipCounts:
    def test_counts_are_integral_core_of_rates(self):
        addresses = stride_addresses(3)
        diffs = addresses[1:] ^ addresses[:-1]
        counts = flip_counts(diffs, 20)
        np.testing.assert_array_equal(
            counts / float(diffs.size), bit_flip_rate_vector(addresses, 20)
        )
        assert counts.dtype == np.int64

    def test_bit_offset_shifts_the_window(self):
        diffs = np.array([0b1100_0000], dtype=np.uint64)
        np.testing.assert_array_equal(
            flip_counts(diffs, 2, bit_offset=6), [1, 1]
        )

    def test_invalid_bits(self):
        with pytest.raises(ProfilingError):
            flip_counts(np.zeros(1, dtype=np.uint64), 0)


class TestWindowRates:
    def test_window_matches_offset_form(self):
        addresses = stride_addresses(4)
        window = window_flip_rates(addresses, (6, 21))
        direct = bit_flip_rate_vector(addresses, 15, bit_offset=6)
        np.testing.assert_allclose(window, direct)

    def test_empty_window_rejected(self):
        with pytest.raises(ProfilingError):
            window_flip_rates(stride_addresses(1), (10, 10))


@given(
    stride_pow=st.integers(0, 6),
    count=st.integers(16, 256),
)
@settings(max_examples=30, deadline=None)
def test_rates_bounded_and_peak_tracks_stride(stride_pow, count):
    addresses = stride_addresses(1 << stride_pow, count)
    rates = bit_flip_rate_vector(addresses, num_bits=30)
    assert (rates >= 0).all() and (rates <= 1).all()
    assert rates.argmax() == 6 + stride_pow
