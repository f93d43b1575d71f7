"""The shared FR-FCFS batch primitive against the lexsort oracles.

``frfcfs_batch_hits`` decides the batch rule for both the fast tier
(through ``row_hit_mask``) and the vector tier (clause 1 of each
block); ``tests/hbm/frfcfs_oracle.py`` keeps the lexsort versions the
two tiers used before.  The primitive must agree flag for flag, also
where a bank's run is longer than the window, so that its look-back
has to stop at batch edges.
"""

from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hbm.config import hbm2_config
from repro.hbm.decode import DecodedTrace, decode_trace
from repro.hbm.fastmodel import WindowModel, frfcfs_batch_hits, row_hit_mask
from repro.hbm.vectormodel import VectorModel

from tests.hbm.frfcfs_oracle import lexsort_block_clause1, lexsort_row_hit_mask

SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "hbm"


def as_decoded(bank: np.ndarray, row: np.ndarray) -> DecodedTrace:
    zeros = np.zeros(bank.size, dtype=np.int64)
    return DecodedTrace(
        channel=zeros, bank=bank, row=row, column=zeros, global_bank=bank
    )


@st.composite
def streams(draw):
    """Bank/row streams drawn from small pools, so rows recur.

    Pools hold up to six ids each, bank ids up to 2^12 and row ids up
    to 2^20; a pool of one gives a single bank or one repeated row.
    """
    banks = draw(st.lists(st.integers(0, 2**12), min_size=1, max_size=6))
    rows = draw(st.lists(st.integers(0, 2**20), min_size=1, max_size=6))
    picks = draw(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=300)
    )
    bank = np.array([banks[b % len(banks)] for b, _ in picks], dtype=np.int64)
    row = np.array([rows[r % len(rows)] for _, r in picks], dtype=np.int64)
    return bank, row


EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
SINGLE = (np.array([4095], dtype=np.int64), np.array([2**20], dtype=np.int64))
ONE_ROW = (np.full(40, 7, dtype=np.int64), np.full(40, 3, dtype=np.int64))


def long_runs():
    """Bank 9's run (600 requests) is longer than every window the
    tests draw, bank 2's (300) than all but 256.  Bank 2 draws from
    four rows, so equal rows are close; in bank 9 each row after the
    first 300 repeats one 1 to 299 requests earlier, so equal rows
    fall at every distance, on both sides of each batch edge."""
    rng = np.random.default_rng(7)
    position = np.arange(900)
    bank = np.where(position % 3 == 0, 2, 9)
    row = rng.integers(0, 4, 900)
    far = 100 + np.arange(600)
    for i, distance in enumerate(rng.integers(1, 300, 300), start=300):
        far[i] = far[i - distance]
    row[bank == 9] = far
    return bank.astype(np.int64), row.astype(np.int64)


LONG_RUNS = long_runs()


@given(stream=streams(), window=st.integers(1, 64))
@example(stream=EMPTY, window=8)
@example(stream=SINGLE, window=1)
@example(stream=ONE_ROW, window=1)
@example(stream=ONE_ROW, window=32)
@example(stream=LONG_RUNS, window=7)
@example(stream=LONG_RUNS, window=8)
@example(stream=LONG_RUNS, window=9)
@example(stream=LONG_RUNS, window=64)
@example(stream=LONG_RUNS, window=256)
@settings(max_examples=300, deadline=None)
def test_fast_tier_matches_lexsort_oracle(stream, window):
    decoded = as_decoded(*stream)
    np.testing.assert_array_equal(
        row_hit_mask(decoded, window), lexsort_row_hit_mask(decoded, window)
    )


@given(stream=streams(), window=st.integers(1, 64))
@example(stream=SINGLE, window=1)
@example(stream=ONE_ROW, window=1)
@example(stream=ONE_ROW, window=32)
@example(stream=LONG_RUNS, window=7)
@example(stream=LONG_RUNS, window=8)
@example(stream=LONG_RUNS, window=9)
@example(stream=LONG_RUNS, window=64)
@example(stream=LONG_RUNS, window=256)
@settings(max_examples=300, deadline=None)
def test_vector_clause1_matches_lexsort_oracle(stream, window):
    bank, row = stream
    if bank.size == 0:  # a lane never flushes an empty block
        return
    got = frfcfs_batch_hits(bank, row, window)
    expected = lexsort_block_clause1(bank, row, window)
    for got_part, expected_part in zip(got, expected):
        np.testing.assert_array_equal(got_part, expected_part)


def test_empty_stream():
    order, new_run, hit = frfcfs_batch_hits(*EMPTY, 8)
    assert order.size == new_run.size == hit.size == 0


def test_window_one_gives_no_fast_tier_hits():
    """The fast tier never carries the open row across a batch."""
    decoded = decode_trace(np.zeros(4, dtype=np.uint64), hbm2_config())
    assert row_hit_mask(decoded, reorder_window=1).tolist() == [False] * 4
    stats = WindowModel(hbm2_config(), reorder_window=1).simulate_decoded(
        decoded
    )
    assert (stats.row_hits, stats.row_misses) == (0, 4)


def test_window_one_vector_tier_carries_the_open_row():
    """The vector tier's clause 2 hits on the bank's open row."""
    decoded = decode_trace(np.zeros(4, dtype=np.uint64), hbm2_config())
    stats = VectorModel(hbm2_config(), frfcfs_window=1).simulate_decoded(
        decoded
    )
    assert (stats.row_hits, stats.row_misses) == (3, 1)


def test_no_tier_keeps_its_own_lexsort():
    for name in ("fastmodel.py", "vectormodel.py"):
        assert "lexsort" not in (SRC / name).read_text()
