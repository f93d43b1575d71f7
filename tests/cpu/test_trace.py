"""Tests for access-trace containers and combinators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import (
    AccessTrace,
    concat_traces,
    interleave_traces,
    radix_argsort,
)
from repro.errors import SimulationError
from tests.cpu.lru_oracle import interleave_loop


def make_trace(values, writes=None, variables=None) -> AccessTrace:
    return AccessTrace(
        va=np.array(values, dtype=np.uint64),
        is_write=None if writes is None else np.array(writes, dtype=bool),
        variable=None if variables is None else np.array(variables),
    )


class TestAccessTrace:
    def test_defaults(self):
        trace = make_trace([1, 2, 3])
        assert len(trace) == 3
        assert not trace.is_write.any()
        assert (trace.variable == -1).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            make_trace([1, 2], writes=[True])
        with pytest.raises(SimulationError):
            make_trace([1, 2], variables=[0])

    def test_select(self):
        trace = make_trace([10, 20, 30], variables=[0, 1, 0])
        sub = trace.select(trace.variable == 0)
        assert sub.va.tolist() == [10, 30]

    def test_take(self):
        trace = make_trace([10, 20, 30])
        assert trace.take(2).va.tolist() == [10, 20]

    def test_aligned(self):
        trace = make_trace([65, 130])
        aligned = trace.aligned(64)
        assert aligned.va.tolist() == [64, 128]

    def test_variables_present(self):
        trace = make_trace([1, 2, 3], variables=[2, -1, 0])
        assert trace.variables_present().tolist() == [0, 2]


class TestConcat:
    def test_order_preserved(self):
        merged = concat_traces([make_trace([1]), make_trace([2, 3])])
        assert merged.va.tolist() == [1, 2, 3]

    def test_empty(self):
        assert len(concat_traces([])) == 0


class TestInterleave:
    def test_round_robin(self):
        a = make_trace([1, 2], variables=[0, 0])
        b = make_trace([10, 20], variables=[1, 1])
        merged = interleave_traces([a, b])
        assert merged.va.tolist() == [1, 10, 2, 20]

    def test_chunked(self):
        a = make_trace([1, 2, 3, 4])
        b = make_trace([10, 20, 30, 40])
        merged = interleave_traces([a, b], chunk=2)
        assert merged.va.tolist() == [1, 2, 10, 20, 3, 4, 30, 40]

    def test_uneven_lengths_drain(self):
        a = make_trace([1])
        b = make_trace([10, 20, 30])
        merged = interleave_traces([a, b])
        assert sorted(merged.va.tolist()) == [1, 10, 20, 30]
        assert len(merged) == 4

    def test_single_trace_passthrough(self):
        a = make_trace([5, 6])
        assert interleave_traces([a]) is a

    def test_metadata_travels(self):
        a = make_trace([1], writes=[True], variables=[3])
        b = make_trace([2], writes=[False], variables=[4])
        merged = interleave_traces([a, b])
        assert merged.is_write.tolist() == [True, False]
        assert merged.variable.tolist() == [3, 4]

    def test_bad_chunk(self):
        with pytest.raises(SimulationError):
            interleave_traces([make_trace([1])], chunk=0)

    def test_empty_list(self):
        assert len(interleave_traces([])) == 0


@given(
    lengths=st.lists(st.integers(0, 40), min_size=0, max_size=6),
    chunk=st.sampled_from([1, 4, 7]),
)
@settings(max_examples=60, deadline=None)
def test_interleave_matches_round_robin_loop(lengths, chunk):
    """Unequal lengths and empty threads drain exactly like the loop."""
    rng = np.random.default_rng(sum(lengths) * 31 + chunk)
    traces = [
        AccessTrace(
            va=rng.integers(0, 1 << 20, n).astype(np.uint64),
            is_write=rng.random(n) < 0.5,
            variable=rng.integers(-1, 8, n),
        )
        for n in lengths
    ]
    merged = interleave_traces(traces, chunk=chunk)
    reference = interleave_loop(traces, chunk=chunk)
    assert merged.va.tolist() == reference.va.tolist()
    assert merged.is_write.tolist() == reference.is_write.tolist()
    assert merged.variable.tolist() == reference.variable.tolist()


@given(
    keys=st.lists(st.integers(-(1 << 40), 1 << 40), max_size=200),
    divisor=st.sampled_from([1, 3, 1 << 17, 1 << 40]),
)
@settings(max_examples=60, deadline=None)
def test_radix_argsort_is_a_stable_argsort(keys, divisor):
    """Wide, negative and heavily repeated keys keep their input order."""
    keys = np.array(keys, dtype=np.int64) // divisor
    expected = np.argsort(keys, kind="stable")
    assert radix_argsort(keys).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "top", [0, 255, 256, 65_535, 65_536, 1 << 40], ids=lambda top: f"range{top}"
)
@pytest.mark.parametrize("low", [0, -(1 << 20)], ids=["from0", "negative"])
def test_radix_argsort_at_each_pass_width(top, low):
    """Key ranges on both sides of the one-byte pass and of each
    16-bit digit, with repeats, sort as NumPy's stable sort does."""
    rng = np.random.default_rng(top)
    keys = low + rng.integers(0, top + 1, 3_000, dtype=np.int64)
    keys[:2] = low, low + top  # the range is exactly ``top``
    keys[-50:] = keys[:50]  # equal keys far apart keep their order
    expected = np.argsort(keys, kind="stable")
    assert radix_argsort(keys).tolist() == expected.tolist()
