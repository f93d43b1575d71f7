"""The DL-assisted clustering path against its former body, bit for bit.

``tests/ml/dl_oracle.py`` keeps the LSTM, autoencoder, vocabulary and
``DLAssistedKMeans`` as they were before the input projections were
hoisted, inference stopped keeping BPTT caches and each distinct
sequence was embedded once.  Every float the package returns must have
the same bits as the oracle's: layer outputs and gradients, embeddings,
centroids, labels, the loss history and the vocabulary coverage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.dlkmeans import (
    AutoencoderConfig,
    DLAssistedKMeans,
    EmbeddingAutoencoder,
)
from repro.ml.embedding import DeltaVocabulary
from repro.ml.lstm import LSTMCell, LSTMLayer

from tests.ml import dl_oracle


def assert_same_bits(got, expected) -> None:
    got = np.ascontiguousarray(got, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def assert_same_grads(got: dict, expected: dict) -> None:
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert_same_bits(got[name], expected[name])


def layer_pair(input_dim: int, hidden_dim: int, seed: int):
    """The new and the oracle layer with identical parameters."""
    new = LSTMLayer(input_dim, hidden_dim, {}, "L", np.random.default_rng(seed))
    old = dl_oracle.LSTMLayer(
        input_dim, hidden_dim, {}, "L", np.random.default_rng(seed)
    )
    return new, old


@given(
    batch=st.integers(1, 9),
    steps=st.integers(1, 6),
    input_dim=st.integers(1, 24),
    hidden_dim=st.integers(1, 40),
    with_h0=st.booleans(),
    with_d_outputs=st.booleans(),
    with_dh_last=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_layer_forward_backward_match_oracle(
    batch, steps, input_dim, hidden_dim, with_h0, with_d_outputs, with_dh_last, seed
):
    new, old = layer_pair(input_dim, hidden_dim, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(batch, steps, input_dim))
    h0 = rng.normal(size=(batch, hidden_dim)) if with_h0 else None
    outputs, h_last, caches = new.forward(x, h0)
    old_outputs, old_h_last, old_caches = old.forward(x, h0)
    assert_same_bits(outputs, old_outputs)
    assert_same_bits(h_last, old_h_last)
    if h0 is None:
        assert_same_bits(new.final_hidden(x), old_h_last)

    d_outputs = rng.normal(size=outputs.shape) if with_d_outputs else None
    dh_last = rng.normal(size=h_last.shape) if with_dh_last else None
    grads: dict = {}
    old_grads: dict = {}
    dx, dh0 = new.backward(d_outputs, dh_last, caches, grads)
    old_dx, old_dh0 = old.backward(d_outputs, dh_last, old_caches, old_grads)
    assert_same_bits(dx, old_dx)
    assert_same_bits(dh0, old_dh0)
    assert_same_grads(grads, old_grads)


@given(
    batch=st.integers(1, 9),
    steps=st.integers(1, 6),
    hidden_dim=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_repeated_input_matches_oracle_on_tiled_input(batch, steps, hidden_dim, seed):
    """The decoder path: one projection of ``z`` fed at every step."""
    new, old = layer_pair(hidden_dim, hidden_dim, seed)
    rng = np.random.default_rng(seed + 1)
    z = rng.normal(size=(batch, hidden_dim))
    outputs, h_last, caches = new.forward_repeated(z, steps)
    tiled = np.repeat(z[:, None, :], steps, axis=1)
    old_outputs, old_h_last, old_caches = old.forward(tiled)
    assert_same_bits(outputs, old_outputs)
    assert_same_bits(h_last, old_h_last)
    d_outputs = rng.normal(size=outputs.shape)
    grads: dict = {}
    old_grads: dict = {}
    dx, _dh0 = new.backward(d_outputs, None, caches, grads)
    old_dx, _old_dh0 = old.backward(d_outputs, None, old_caches, old_grads)
    assert_same_bits(dx, old_dx)
    assert_same_grads(grads, old_grads)


def test_cell_step_matches_oracle():
    new = LSTMCell(5, 7, {}, "c", np.random.default_rng(3))
    old = dl_oracle.LSTMCell(5, 7, {}, "c", np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x, h, c = (rng.normal(size=(3, n)) for n in (5, 7, 7))
    h_next, c_next, cache = new.forward(x, h, c)
    old_h_next, old_c_next, old_cache = old.forward(x, h, c)
    assert_same_bits(h_next, old_h_next)
    assert_same_bits(c_next, old_c_next)
    dh, dc = rng.normal(size=(3, 7)), rng.normal(size=(3, 7))
    grads: dict = {}
    old_grads: dict = {}
    got = new.backward(dh, dc, cache, grads)
    expected = old.backward(dh, dc, old_cache, old_grads)
    for a, b in zip(got, expected):
        assert_same_bits(a, b)
    assert_same_grads(grads, old_grads)


def test_autoencoder_forward_backward_match_oracle():
    config = AutoencoderConfig(
        sequence_length=6, hidden_dim=12, delta_embed_dim=5, vid_embed_dim=3
    )
    new = EmbeddingAutoencoder(9, 3, 7, config)
    old = dl_oracle.EmbeddingAutoencoder(9, 3, 7, config)
    rng = np.random.default_rng(5)
    delta_ids = rng.integers(0, 9, (4, 6))
    vid_ids = np.repeat(rng.integers(0, 3, (4, 1)), 6, axis=1)
    targets = rng.integers(0, 2, (4, 6, 7)).astype(np.float64)
    z, recon, cache = new.forward(delta_ids, vid_ids)
    old_z, old_recon, old_cache = old.forward(delta_ids, vid_ids)
    assert_same_bits(z, old_z)
    assert_same_bits(recon, old_recon)
    assert_same_bits(new.embed(delta_ids, vid_ids), old.embed(delta_ids, vid_ids))
    dz_extra = rng.normal(size=z.shape)
    assert_same_grads(
        new.backward(cache, targets, dz_extra),
        old.backward(old_cache, targets, dz_extra),
    )


# -- DeltaVocabulary.encode ---------------------------------------------------

U64 = st.integers(0, 2**64 - 1)


def vocab_pair(fitted, max_size):
    fitted = np.array(fitted, dtype=np.uint64)
    return (
        DeltaVocabulary(max_size).fit(fitted),
        dl_oracle.DeltaVocabulary(max_size).fit(fitted),
    )


@given(
    fitted=st.lists(
        st.one_of(U64, st.sampled_from([0, 1, 64, 2**63, 2**64 - 1])), max_size=60
    ),
    queries=st.lists(U64, max_size=40),
    max_size=st.integers(2, 12),
)
@settings(max_examples=150, deadline=None)
def test_encode_matches_oracle_over_uint64(fitted, queries, max_size):
    new, old = vocab_pair(fitted, max_size)
    assert new.size == old.size
    # Query every fitted value (kept or not) and unseen ones.
    deltas = np.array(fitted + queries, dtype=np.uint64)
    np.testing.assert_array_equal(new.encode(deltas), old.encode(deltas))
    assert new.coverage(deltas) == old.coverage(deltas)


def test_encode_high_half_and_oov():
    fitted = [2**63, 2**63, 2**64 - 1, 2**64 - 1, 2**64 - 1, 5, 7]
    new, old = vocab_pair(fitted, 3)
    deltas = np.array([2**64 - 1, 2**63, 5, 7, 2**63 + 1, 0], dtype=np.uint64)
    got = new.encode(deltas)
    np.testing.assert_array_equal(got, old.encode(deltas))
    assert got.tolist() == [1, 2, 0, 0, 0, 0]


def test_encode_on_empty_vocabulary_is_all_oov():
    new, old = vocab_pair([], 8)
    assert new.size == old.size == 1
    deltas = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
    np.testing.assert_array_equal(new.encode(deltas), old.encode(deltas))
    assert new.encode(np.zeros(0, dtype=np.uint64)).shape == (0,)


def test_encode_keeps_negative_ints_out_of_vocabulary():
    new, old = vocab_pair([2**64 - 1, 3, 3], 4)
    deltas = np.array([-1, 3, -3], dtype=np.int64)
    np.testing.assert_array_equal(new.encode(deltas), old.encode(deltas))


# -- DLAssistedKMeans.fit ------------------------------------------------------

SMALL = AutoencoderConfig(
    sequence_length=8,
    hidden_dim=8,
    delta_embed_dim=4,
    vid_embed_dim=2,
    pretrain_steps=6,
    joint_steps=6,
    centroid_refresh=3,
    batch_size=5,
)


def stride_trace(stride_lines: int, count: int) -> np.ndarray:
    addresses = np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * 64)
    return addresses[1:] ^ addresses[:-1]


def random_trace(seed: int, count: int, distinct: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**63, distinct, dtype=np.uint64) << np.uint64(1)
    return values[rng.integers(0, distinct, count)]


def mixed_trace(seed: int) -> np.ndarray:
    """Repeated stride runs with a few random deltas mixed in."""
    trace = stride_trace(2, 120)
    trace[np.random.default_rng(seed).integers(0, trace.size, 6)] = np.uint64(4096)
    return trace


def constant_trace(count: int) -> np.ndarray:
    return np.full(count, 64, dtype=np.uint64)


# With SMALL's 8-step sequences and batches of 5, the sets cover a last
# sequence batch of one ("with-empty", "one-distinct-row"), a last
# distinct-row chunk of one ("lone-distinct-row") and a single distinct
# row ("one-distinct-row"): the one-row products numpy runs via gemv.
TRACE_SETS = {
    "repeated": [stride_trace(1, 200), stride_trace(1, 200), stride_trace(16, 120)],
    "short-padded": [stride_trace(1, 5), stride_trace(2, 3), stride_trace(4, 9)],
    "oov-heavy": [random_trace(1, 90, 60), random_trace(2, 70, 50), mixed_trace(3)],
    "with-empty": [stride_trace(1, 60), np.zeros(0, dtype=np.uint64), mixed_trace(4)],
    "one-distinct-row": [constant_trace(88)],
    "lone-distinct-row": [constant_trace(16), stride_trace(3, 49)],
}
CONFIGS = {
    "refresh-on-last-step": SMALL,
    "refresh-off-last-step": AutoencoderConfig(
        **{**SMALL.__dict__, "joint_steps": 7}
    ),
    "no-joint-steps": AutoencoderConfig(**{**SMALL.__dict__, "joint_steps": 0}),
    "tiny-vocab": AutoencoderConfig(**{**SMALL.__dict__, "delta_vocab": 3}),
    "batch-of-one": AutoencoderConfig(**{**SMALL.__dict__, "batch_size": 1}),
}


@pytest.mark.parametrize("traces", list(TRACE_SETS), ids=str)
@pytest.mark.parametrize("config", list(CONFIGS), ids=str)
@pytest.mark.parametrize("k", [2, 5])
def test_fit_matches_oracle(traces, config, k):
    traces = TRACE_SETS[traces]
    config = CONFIGS[config]
    got = DLAssistedKMeans(k, config).fit(traces)
    expected = dl_oracle.DLAssistedKMeans(k, config).fit(traces)
    np.testing.assert_array_equal(got.labels, expected.labels)
    assert_same_bits(got.embeddings, expected.embeddings)
    assert_same_bits(got.centroids, expected.centroids)
    assert_same_bits(got.loss_history, expected.loss_history)
    assert got.vocab_coverage == expected.vocab_coverage
