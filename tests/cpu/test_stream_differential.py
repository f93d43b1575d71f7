"""Differential tests: the block interleave and the strided thread split.

``interleave_traces`` lays the rotation out in whole (round, thread,
chunk) blocks and ``_split_threads`` deals a merged trace as strided
views.  Both must return what the versions they replaced return:
``interleave_sort`` (one stable sort on (round, thread)) and
``split_masks`` (one mask and copy per thread), kept in
``tests/cpu/lru_oracle.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import AccessTrace, interleave_traces
from repro.workloads.graph import _split_threads
from tests.cpu.lru_oracle import interleave_sort, split_masks

FIELDS = ("va", "is_write", "variable")


def random_trace(rng, n: int) -> AccessTrace:
    return AccessTrace(
        va=rng.integers(0, 1 << 40, n).astype(np.uint64),
        is_write=rng.random(n) < 0.4,
        variable=rng.integers(-1, 9, n),
    )


def assert_same(got: AccessTrace, want: AccessTrace) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


@st.composite
def thread_lengths(draw):
    """0-9 threads whose lengths are equal, near-equal or ragged."""
    threads = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["equal", "near", "ragged"]))
    if shape == "ragged":
        lengths = st.lists(st.integers(0, 400), min_size=threads, max_size=threads)
        return draw(lengths)
    base = draw(st.integers(0, 400))
    if shape == "equal":
        return [base] * threads
    return [max(0, base + draw(st.integers(-9, 9))) for _ in range(threads)]


@given(
    lengths=thread_lengths(),
    chunk=st.integers(1, 9),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_interleave_matches_sort_oracle(lengths, chunk, strided, seed):
    """Every shape and chunk, on contiguous inputs and on strided views."""
    rng = np.random.default_rng(seed)
    traces = [random_trace(rng, n) for n in lengths]
    if strided:
        # Same values, every field a stride-2 view into a larger array.
        traces = [
            AccessTrace(**{f: np.repeat(getattr(t, f), 2)[::2] for f in FIELDS})
            for t in traces
        ]
    assert_same(
        interleave_traces(traces, chunk=chunk), interleave_sort(traces, chunk=chunk)
    )


@given(
    n=st.integers(0, 400),
    threads=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_split_matches_mask_oracle(n, threads, seed):
    trace = random_trace(np.random.default_rng(seed), n)
    got = _split_threads(trace, threads)
    want = split_masks(trace, threads)
    assert len(got) == len(want) == threads
    for g, w in zip(got, want):
        assert_same(g, w)


@given(
    n=st.integers(0, 400),
    threads=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_split_then_interleave_round_trips(n, threads, seed):
    """Dealing round-robin and interleaving with ``chunk=1`` is the identity."""
    trace = random_trace(np.random.default_rng(seed), n)
    assert_same(interleave_traces(_split_threads(trace, threads), chunk=1), trace)
