"""LSTM cell and sequence layers, forward and backward, in numpy.

The building block of the Section 6.2 embedding autoencoder (Fig. 9).
Written from scratch with full BPTT; the gradients are verified against
numerical differentiation in ``tests/ml/test_lstm.py``.

A layer projects its inputs for all steps with one matmul before the
time loop, and ``final_hidden`` runs the loop without BPTT caches.  Each
step still computes ``(x @ Wx + h @ Wh) + b`` with the same operands,
so results are bit-identical to a step-by-step cell
(``tests/ml/test_dl_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError

__all__ = ["LSTMCell", "LSTMLayer", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function, without branches.

    ``minimum(x, -x)`` is ``-|x|`` that keeps a NaN's sign bit, and
    ``maximum(e, x >= 0)`` is the numerator: 1 for ``x >= 0``, else ``e``.
    """
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


class LSTMCell:
    """One LSTM cell; parameters live in a shared named dict."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        params: dict[str, np.ndarray],
        prefix: str,
        rng: np.random.Generator,
    ):
        if input_dim < 1 or hidden_dim < 1:
            raise TrainingError("dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.prefix = prefix
        self.keys = (f"{prefix}.Wx", f"{prefix}.Wh", f"{prefix}.b")
        scale_x = 1.0 / np.sqrt(input_dim)
        scale_h = 1.0 / np.sqrt(hidden_dim)
        params[f"{prefix}.Wx"] = rng.normal(0, scale_x, (input_dim, 4 * hidden_dim))
        params[f"{prefix}.Wh"] = rng.normal(0, scale_h, (hidden_dim, 4 * hidden_dim))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias trick
        params[f"{prefix}.b"] = bias
        self.params = params

    def forward(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One step; returns ``(h_next, c_next, cache)``."""
        return self.step(x @ self.params[self.keys[0]], x, h, c)

    def step(self, x_proj: np.ndarray, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """``forward`` given ``x_proj = x @ Wx``.

        The cache holds the activation block ``[i|f|g|o]`` with ``g``
        already passed through tanh.
        """
        _key_wx, key_wh, key_b = self.keys
        gates = x_proj + h @ self.params[key_wh]
        gates += self.params[key_b]
        hd = self.hidden_dim
        act = sigmoid(gates)  # one call over [i|f|g|o]; g is re-done as tanh
        np.tanh(gates[:, 2 * hd : 3 * hd], out=act[:, 2 * hd : 3 * hd])
        c_next = act[:, hd : 2 * hd] * c + act[:, :hd] * act[:, 2 * hd : 3 * hd]
        tanh_c = np.tanh(c_next)
        h_next = act[:, 3 * hd :] * tanh_c
        return h_next, c_next, (x, h, c, act, tanh_c)

    def backward(
        self,
        dh_next: np.ndarray,
        dc_next: np.ndarray,
        cache,
        grads: dict[str, np.ndarray],
    ):
        """One step of BPTT; returns ``(dx, dh_prev, dc_prev)``.

        Parameter gradients accumulate into ``grads``.
        """
        x, h, c, act, tanh_c = cache
        hd = self.hidden_dim
        i = act[:, :hd]
        f = act[:, hd : 2 * hd]
        g = act[:, 2 * hd : 3 * hd]
        o = act[:, 3 * hd :]
        dc = dc_next + dh_next * o * (1 - tanh_c * tanh_c)
        # d_act holds [di|df|dg|do]; d_gates = d_act * act * (1 - act)
        # except for the tanh gate, whose slice is redone below.
        d_act = np.empty_like(act)
        np.multiply(dc, g, out=d_act[:, :hd])
        np.multiply(dc, c, out=d_act[:, hd : 2 * hd])
        np.multiply(dc, i, out=d_act[:, 2 * hd : 3 * hd])
        np.multiply(dh_next, tanh_c, out=d_act[:, 3 * hd :])
        d_gates = d_act * act
        d_gates *= 1 - act
        dg = d_act[:, 2 * hd : 3 * hd]
        np.multiply(dg, 1 - g * g, out=d_gates[:, 2 * hd : 3 * hd])
        dc_prev = dc * f
        key_wx, key_wh, key_b = self.keys
        p = self.params
        for key, grad in (
            (key_wx, x.T @ d_gates),
            (key_wh, h.T @ d_gates),
            (key_b, d_gates.sum(axis=0)),
        ):
            total = grads.get(key)
            if total is None:
                total = grads[key] = np.zeros_like(p[key])
            total += grad
        dx = d_gates @ p[key_wx].T
        dh_prev = d_gates @ p[key_wh].T
        return dx, dh_prev, dc_prev


class LSTMLayer:
    """Unrolled LSTM over a (batch, time, feature) tensor."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        params: dict[str, np.ndarray],
        prefix: str,
        rng: np.random.Generator,
    ):
        self.cell = LSTMCell(input_dim, hidden_dim, params, prefix, rng)
        self.hidden_dim = hidden_dim

    def _project(self, x: np.ndarray) -> np.ndarray:
        """``x @ Wx`` for every step at once, as (batch, time, 4*hidden).

        numpy runs a one-row product through gemv, whose sums round
        differently from gemm's, so a batch of one is projected per step.
        """
        batch, steps, features = x.shape
        wx = self.cell.params[self.cell.keys[0]]
        if batch == 1 and steps:
            return np.stack([x[:, t, :] @ wx for t in range(steps)], axis=1)
        flat = x.reshape(steps * batch, features) @ wx
        return flat.reshape(batch, steps, wx.shape[1])

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None):
        """Run the sequence; returns ``(outputs, h_last, caches)``.

        ``outputs`` is (batch, time, hidden).
        """
        x_proj = self._project(x)
        inputs = [(x_proj[:, t, :], x[:, t, :]) for t in range(x.shape[1])]
        return self._unroll(inputs, x.shape[0], h0)

    def forward_repeated(self, x: np.ndarray, steps: int):
        """``forward`` over ``x`` (batch, features) fed at every step.

        Projects ``x`` once instead of once per step.  The caches keep
        per-step views of the tiled input, as ``forward`` does, since a
        one-feature gradient product rounds by the input's strides.
        """
        x_proj = x @ self.cell.params[self.cell.keys[0]]
        tiled = np.repeat(x[:, None, :], steps, axis=1)
        inputs = [(x_proj, tiled[:, t, :]) for t in range(steps)]
        return self._unroll(inputs, x.shape[0], None)

    def _unroll(self, inputs, batch: int, h0: np.ndarray | None):
        h = np.zeros((batch, self.hidden_dim)) if h0 is None else h0
        c = np.zeros((batch, self.hidden_dim))
        outputs = np.empty((batch, len(inputs), self.hidden_dim))
        caches = []
        for t, (x_proj, x) in enumerate(inputs):
            h, c, cache = self.cell.step(x_proj, x, h, c)
            outputs[:, t, :] = h
            caches.append(cache)
        return outputs, h, caches

    def final_hidden(self, x: np.ndarray) -> np.ndarray:
        """The last hidden state of ``forward(x)``; each step's cache is dropped."""
        x_proj = self._project(x)
        h = np.zeros((x.shape[0], self.hidden_dim))
        c = np.zeros((x.shape[0], self.hidden_dim))
        for t in range(x.shape[1]):
            h, c, _cache = self.cell.step(x_proj[:, t, :], x[:, t, :], h, c)
        return h

    def backward(
        self,
        d_outputs: np.ndarray | None,
        dh_last: np.ndarray | None,
        caches,
        grads: dict[str, np.ndarray],
    ):
        """BPTT; returns ``(dx, dh0)``.

        ``d_outputs`` is the per-step gradient (may be None), ``dh_last``
        an extra gradient on the final hidden state (may be None).
        """
        steps = len(caches)
        batch = caches[0][0].shape[0]
        input_dim = caches[0][0].shape[1]
        dx = np.zeros((batch, steps, input_dim))
        dh = np.zeros((batch, self.hidden_dim))
        dc = np.zeros((batch, self.hidden_dim))
        if dh_last is not None:
            dh += dh_last
        for t in range(steps - 1, -1, -1):
            if d_outputs is not None:
                dh += d_outputs[:, t, :]
            dx[:, t, :], dh, dc = self.cell.backward(dh, dc, caches[t], grads)
        return dx, dh
