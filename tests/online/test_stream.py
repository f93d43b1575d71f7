"""Tests for the streaming BFRV estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.online.stream import StreamingBFRV
from repro.profiling.bfrv import (
    DEGENERATE_CONSTANT,
    DEGENERATE_SHORT,
    bit_flip_rate_vector,
)


def stride_addresses(stride_lines: int, count: int = 512) -> np.ndarray:
    return np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * 64)


class TestStreamingBFRV:
    def test_single_window_matches_batch(self):
        addresses = stride_addresses(4)
        estimator = StreamingBFRV(num_bits=20, decay=1.0)
        rates = estimator.update(addresses)
        np.testing.assert_array_equal(
            rates, bit_flip_rate_vector(addresses, 20)
        )

    def test_window_split_is_lossless(self):
        """Boundary pairs are counted: any split reproduces the batch."""
        addresses = stride_addresses(2, 600)
        estimator = StreamingBFRV(num_bits=16, decay=1.0)
        for start in range(0, 600, 97):  # deliberately ragged windows
            estimator.update(addresses[start : start + 97])
        np.testing.assert_array_equal(
            estimator.rates, bit_flip_rate_vector(addresses, 16)
        )

    def test_decay_forgets_old_phase(self):
        estimator = StreamingBFRV(num_bits=10, decay=0.3)
        estimator.update(stride_addresses(1, 256))
        early = estimator.rates.copy()
        for _ in range(6):
            estimator.update(stride_addresses(16, 256))
        late = estimator.rates
        target = bit_flip_rate_vector(stride_addresses(16, 256), 10)
        assert np.abs(late - target).mean() < np.abs(early - target).mean()
        assert np.abs(late - target).mean() < 0.02

    def test_short_window_flagged_not_raised(self):
        estimator = StreamingBFRV(num_bits=8)
        estimator.update(np.zeros(0, dtype=np.uint64))
        assert estimator.last_degenerate == DEGENERATE_SHORT
        assert estimator.degenerate_windows == 1
        assert (estimator.rates == 0).all()

    def test_constant_window_flagged_and_counted_in_pairs(self):
        estimator = StreamingBFRV(num_bits=8, decay=1.0)
        estimator.update(np.full(10, 0x40, dtype=np.uint64))
        assert estimator.last_degenerate == DEGENERATE_CONSTANT
        # Pairs still accumulate (batch-denominator parity).
        assert estimator.pairs_weight == 9.0
        assert (estimator.rates == 0).all()

    def test_constant_then_varying_matches_batch(self):
        constant = np.full(20, 0x1000, dtype=np.uint64)
        varying = stride_addresses(1, 100)
        estimator = StreamingBFRV(num_bits=12, decay=1.0)
        estimator.update(constant)
        estimator.update(varying)
        batch = bit_flip_rate_vector(np.concatenate([constant, varying]), 12)
        np.testing.assert_array_equal(estimator.rates, batch)

    def test_invalid_params(self):
        with pytest.raises(ProfilingError):
            StreamingBFRV(num_bits=0)
        with pytest.raises(ProfilingError):
            StreamingBFRV(num_bits=4, decay=0.0)
        with pytest.raises(ProfilingError):
            StreamingBFRV(num_bits=4, decay=1.5)


@given(
    seed=st.integers(0, 2**31 - 1),
    splits=st.lists(st.integers(1, 64), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_streaming_decay_one_is_bitexact_with_batch(seed, splits):
    """The satellite property: decay=1.0 over concatenated windows
    equals the batch estimator on the full trace, bit for bit."""
    rng = np.random.default_rng(seed)
    total = sum(splits)
    addresses = rng.integers(0, 1 << 30, total, dtype=np.uint64)
    estimator = StreamingBFRV(num_bits=21, bit_offset=3, decay=1.0)
    start = 0
    for size in splits:
        estimator.update(addresses[start : start + size])
        start += size
    batch = bit_flip_rate_vector(addresses, 21, bit_offset=3)
    np.testing.assert_array_equal(estimator.rates, batch)

