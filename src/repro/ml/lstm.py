"""LSTM cell and sequence layers, forward and backward, in numpy.

The building block of the Section 6.2 embedding autoencoder (Fig. 9).
Written from scratch with full BPTT; the gradients are verified against
numerical differentiation in ``tests/ml/test_lstm.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError

__all__ = ["LSTMCell", "LSTMLayer", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function, without branches.

    ``minimum(x, -x)`` is ``-|x|`` that keeps a NaN's sign bit.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        p = self.params
        gates = x @ p[f"{self.prefix}.Wx"] + h @ p[f"{self.prefix}.Wh"]
        gates += p[f"{self.prefix}.b"]
        hd = self.hidden_dim
        act = sigmoid(gates)  # one call over [i|f|g|o]; g is re-done as tanh
        i = act[:, :hd]
        f = act[:, hd : 2 * hd]
        g = np.tanh(gates[:, 2 * hd : 3 * hd])
        o = act[:, 3 * hd :]
        c_next = f * c + i * g
        tanh_c = np.tanh(c_next)
        h_next = o * tanh_c
        cache = (x, h, c, i, f, g, o, tanh_c)
        return h_next, c_next, cache

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
        x, h, c, i, f, g, o, tanh_c = cache
        p = self.params
        do = dh_next * tanh_c
        dc = dc_next + dh_next * o * (1 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c
        dg = dc * i
        dc_prev = dc * f
        d_gates = np.concatenate(
            [
                di * i * (1 - i),
                df * f * (1 - f),
                dg * (1 - g * g),
                do * o * (1 - o),
            ],
            axis=1,
        )
        key_wx, key_wh, key_b = (
            f"{self.prefix}.Wx",
            f"{self.prefix}.Wh",
            f"{self.prefix}.b",
        )
        grads.setdefault(key_wx, np.zeros_like(p[key_wx]))
        grads.setdefault(key_wh, np.zeros_like(p[key_wh]))
        grads.setdefault(key_b, np.zeros_like(p[key_b]))
        grads[key_wx] += x.T @ d_gates
        grads[key_wh] += h.T @ d_gates
        grads[key_b] += d_gates.sum(axis=0)
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

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None):
        """Run the sequence; returns ``(outputs, h_last, caches)``.

        ``outputs`` is (batch, time, hidden).
        """
        batch, steps, _features = x.shape
        h = np.zeros((batch, self.hidden_dim)) if h0 is None else h0
        c = np.zeros((batch, self.hidden_dim))
        outputs = np.empty((batch, steps, self.hidden_dim))
        caches = []
        for t in range(steps):
            h, c, cache = self.cell.forward(x[:, t, :], h, c)
            outputs[:, t, :] = h
            caches.append(cache)
        return outputs, h, caches

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
