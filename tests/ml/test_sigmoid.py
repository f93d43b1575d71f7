"""The branch-free ``sigmoid`` against the masked formula it replaced."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.lstm import sigmoid


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The former body: boolean-mask scatter over the two signs."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


EDGES = [0.0, 1e-300, 5e-324, 1.0, 36.7, 709.0, 710.0, 745.0, 746.0]
EDGES += [1e308, np.inf]
GRID = np.array([*EDGES, *(-v for v in EDGES), np.nan, -np.nan])


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def test_edge_grid_is_bit_identical_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(GRID)
        expected = masked_sigmoid(GRID)
    np.testing.assert_array_equal(bits(got), bits(expected))


def test_gate_block_shape_is_kept():
    x = np.linspace(-50, 50, 96).reshape(3, 32)
    got = sigmoid(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(bits(got), bits(masked_sigmoid(x)))


@given(
    arrays(
        np.float64,
        st.integers(0, 64),
        elements=st.floats(allow_nan=True, allow_infinity=True),
    )
)
@settings(max_examples=200, deadline=None)
def test_any_floats_are_bit_identical(x):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = sigmoid(x)
    np.testing.assert_array_equal(bits(got), bits(masked_sigmoid(x)))
