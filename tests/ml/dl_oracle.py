"""The DL-assisted clustering path as it was before its exact speed-up.

``repro.ml`` now embeds each distinct sequence once with a cache-free
encoder pass, hoists the LSTM input projections out of the time loop,
trims the step kernels and encodes deltas with one ``searchsorted``.
The former ``sigmoid``, ``LSTMCell``, ``LSTMLayer``, ``DeltaVocabulary``,
``EmbeddingAutoencoder`` and ``DLAssistedKMeans`` are kept here
verbatim, outside the package, as oracles: the package must produce the
same bits (``tests/ml/test_dl_differential.py``).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.errors import TrainingError
from repro.ml.adam import Adam
from repro.ml.dlkmeans import AutoencoderConfig, DLClusterResult
from repro.ml.embedding import Embedding
from repro.ml.kmeans import KMeans


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


class DeltaVocabulary:
    """Top-K address deltas -> dense ids; everything else -> OOV (id 0)."""

    OOV = 0

    def __init__(self, max_size: int = 256):
        if max_size < 2:
            raise TrainingError("vocabulary needs room for OOV plus one delta")
        self.max_size = max_size
        self._ids: dict[int, int] = {}

    def fit(self, deltas: np.ndarray) -> "DeltaVocabulary":
        """Fit to the given data; returns self or the result."""
        counts = Counter(np.asarray(deltas, dtype=np.uint64).tolist())
        most_common = counts.most_common(self.max_size - 1)
        self._ids = {
            delta: index + 1 for index, (delta, _count) in enumerate(most_common)
        }
        return self

    @property
    def size(self) -> int:
        """Heap length in bytes."""
        return len(self._ids) + 1

    def encode(self, deltas: np.ndarray) -> np.ndarray:
        """Map raw values to vocabulary ids (OOV for unknown)."""
        ids = np.fromiter(
            (self._ids.get(int(d), self.OOV) for d in np.asarray(deltas)),
            dtype=np.int64,
            count=len(deltas),
        )
        return ids

    def coverage(self, deltas: np.ndarray) -> float:
        """Fraction of deltas that map to a real (non-OOV) id."""
        if len(deltas) == 0:
            return 0.0
        ids = self.encode(deltas)
        return float((ids != self.OOV).mean())


class EmbeddingAutoencoder:
    """The Fig. 9 network: embeddings -> encoder LSTM -> decoder LSTM."""

    def __init__(
        self,
        delta_vocab_size: int,
        num_variables: int,
        target_bits: int,
        config: AutoencoderConfig,
    ):
        if target_bits < 1:
            raise TrainingError("need at least one target bit")
        self.config = config
        self.target_bits = target_bits
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, np.ndarray] = {}
        self.delta_embedding = Embedding(
            delta_vocab_size, config.delta_embed_dim, self.params, "delta", rng
        )
        self.vid_embedding = Embedding(
            max(1, num_variables), config.vid_embed_dim, self.params, "vid", rng
        )
        input_dim = config.delta_embed_dim + config.vid_embed_dim
        self.encoder = LSTMLayer(
            input_dim, config.hidden_dim, self.params, "enc", rng
        )
        self.decoder = LSTMLayer(
            config.hidden_dim, config.hidden_dim, self.params, "dec", rng
        )
        scale = 1.0 / np.sqrt(config.hidden_dim)
        self.params["out.W"] = rng.normal(
            0, scale, (config.hidden_dim, target_bits)
        )
        self.params["out.b"] = np.zeros(target_bits)

    def forward(self, delta_ids: np.ndarray, vid_ids: np.ndarray):
        """Compute embeddings and reconstructions.

        Returns ``(z, reconstruction, cache)`` with ``z`` of shape
        (batch, hidden) and ``reconstruction`` (batch, time, bits).
        """
        delta_vectors = self.delta_embedding.forward(delta_ids)
        vid_vectors = self.vid_embedding.forward(vid_ids)
        x = np.concatenate([delta_vectors, vid_vectors], axis=2)
        _enc_out, z, enc_caches = self.encoder.forward(x)
        batch, steps = delta_ids.shape
        decoder_input = np.repeat(z[:, None, :], steps, axis=1)
        dec_out, _h, dec_caches = self.decoder.forward(decoder_input)
        logits = dec_out @ self.params["out.W"] + self.params["out.b"]
        reconstruction = sigmoid(logits)
        cache = (delta_ids, vid_ids, enc_caches, dec_caches, dec_out, reconstruction)
        return z, reconstruction, cache

    def embed(self, delta_ids: np.ndarray, vid_ids: np.ndarray) -> np.ndarray:
        """Embeddings only (no decoder pass needed for inference)."""
        delta_vectors = self.delta_embedding.forward(delta_ids)
        vid_vectors = self.vid_embedding.forward(vid_ids)
        x = np.concatenate([delta_vectors, vid_vectors], axis=2)
        _out, z, _caches = self.encoder.forward(x)
        return z

    @staticmethod
    def reconstruction_loss(
        reconstruction: np.ndarray, targets: np.ndarray
    ) -> float:
        """Mean L1 over delta bits (Eq. 3, normalised)."""
        return float(np.abs(reconstruction - targets).mean())

    def backward(
        self,
        cache,
        targets: np.ndarray,
        dz_extra: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Gradients of L1 reconstruction loss (+ optional dL/dz term)."""
        delta_ids, vid_ids, enc_caches, dec_caches, dec_out, recon = cache
        grads: dict[str, np.ndarray] = {}
        n = recon.size
        d_recon = np.sign(recon - targets) / n
        d_logits = d_recon * recon * (1 - recon)
        flat_dec = dec_out.reshape(-1, dec_out.shape[2])
        flat_dlogits = d_logits.reshape(-1, d_logits.shape[2])
        grads["out.W"] = flat_dec.T @ flat_dlogits
        grads["out.b"] = flat_dlogits.sum(axis=0)
        d_dec_out = d_logits @ self.params["out.W"].T
        d_dec_in, _dh0 = self.decoder.backward(d_dec_out, None, dec_caches, grads)
        dz = d_dec_in.sum(axis=1)
        if dz_extra is not None:
            dz = dz + dz_extra
        dx, _dh0 = self.encoder.backward(None, dz, enc_caches, grads)
        split = self.config.delta_embed_dim
        self.delta_embedding.backward(delta_ids, dx[:, :, :split], grads)
        self.vid_embedding.backward(vid_ids, dx[:, :, split:], grads)
        return grads


class DLAssistedKMeans:
    """End-to-end DL-assisted clustering over per-variable delta traces."""

    def __init__(self, k: int, config: AutoencoderConfig | None = None):
        if k < 1:
            raise TrainingError("k must be >= 1")
        self.k = k
        self.config = config or AutoencoderConfig()

    # -- dataset construction ------------------------------------------------
    def _build_dataset(
        self,
        delta_traces: list[np.ndarray],
        window: tuple[int, int],
    ):
        """Chop per-variable delta traces into fixed-length sequences."""
        length = self.config.sequence_length
        low, high = window
        bits = high - low
        all_deltas = (
            np.concatenate([d for d in delta_traces if d.size])
            if any(d.size for d in delta_traces)
            else np.zeros(0, dtype=np.uint64)
        )
        vocab = DeltaVocabulary(self.config.delta_vocab).fit(all_deltas)
        sequences: list[tuple[int, np.ndarray, np.ndarray]] = []
        for variable_index, deltas in enumerate(delta_traces):
            if deltas.size == 0:
                continue
            if deltas.size < length:  # pad short traces by tiling
                reps = -(-length // deltas.size)
                deltas = np.tile(deltas, reps)
            usable = (deltas.size // length) * length
            ids = vocab.encode(deltas[:usable]).reshape(-1, length)
            shifts = np.arange(low, high, dtype=np.uint64)
            bit_targets = (
                (deltas[:usable, None] >> shifts) & np.uint64(1)
            ).astype(np.float64)
            bit_targets = bit_targets.reshape(-1, length, bits)
            for row in range(ids.shape[0]):
                sequences.append((variable_index, ids[row], bit_targets[row]))
        if not sequences:
            raise TrainingError("no delta sequences to train on")
        return vocab, sequences

    @staticmethod
    def _batch(sequences, indices):
        variable_index = np.array([sequences[i][0] for i in indices])
        delta_ids = np.stack([sequences[i][1] for i in indices])
        targets = np.stack([sequences[i][2] for i in indices])
        vid_ids = np.repeat(
            variable_index[:, None], delta_ids.shape[1], axis=1
        )
        return variable_index, delta_ids, vid_ids, targets

    def _variable_embeddings(
        self, model: EmbeddingAutoencoder, sequences, num_variables: int
    ) -> np.ndarray:
        sums = np.zeros((num_variables, self.config.hidden_dim))
        counts = np.zeros(num_variables)
        batch = self.config.batch_size
        for start in range(0, len(sequences), batch):
            indices = range(start, min(start + batch, len(sequences)))
            variable_index, delta_ids, vid_ids, _targets = self._batch(
                sequences, list(indices)
            )
            z = model.embed(delta_ids, vid_ids)
            np.add.at(sums, variable_index, z)
            np.add.at(counts, variable_index, 1)
        counts[counts == 0] = 1
        return sums / counts[:, None]

    # -- training -------------------------------------------------------------
    def fit(
        self,
        delta_traces: list[np.ndarray],
        window: tuple[int, int] = (6, 21),
    ) -> DLClusterResult:
        """Cluster variables given their delta traces.

        ``delta_traces[i]`` is the XOR-delta trace of variable ``i``;
        the returned labels align with that list.
        """
        start_time = time.perf_counter()
        num_variables = len(delta_traces)
        if num_variables == 0:
            raise TrainingError("no variables to cluster")
        config = self.config
        vocab, sequences = self._build_dataset(delta_traces, window)
        model = EmbeddingAutoencoder(
            delta_vocab_size=vocab.size,
            num_variables=num_variables,
            target_bits=window[1] - window[0],
            config=config,
        )
        optimizer = Adam(model.params, lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        history: list[float] = []

        def training_step(dz_fn=None) -> float:
            """One minibatch update; returns the loss."""
            indices = rng.integers(0, len(sequences), config.batch_size)
            variable_index, delta_ids, vid_ids, targets = self._batch(
                sequences, indices.tolist()
            )
            z, reconstruction, cache = model.forward(delta_ids, vid_ids)
            loss = model.reconstruction_loss(reconstruction, targets)
            dz_extra = None
            if dz_fn is not None:
                dz_extra, cluster_loss = dz_fn(z)
                loss += cluster_loss
            grads = model.backward(cache, targets, dz_extra=dz_extra)
            optimizer.step(grads)
            return loss

        # Phase 1: pure reconstruction pre-training (Eq. 3).
        for _step in range(config.pretrain_steps):
            history.append(training_step())

        # Phase 2: joint reconstruction + clustering loss.
        effective_k = min(self.k, num_variables)
        embeddings = self._variable_embeddings(model, sequences, num_variables)
        centroids = KMeans(effective_k, seed=config.seed).fit(embeddings).centroids

        def cluster_gradient(z: np.ndarray):
            """dL/dz and loss of the clustering term."""
            assignment = KMeans.assign(z, centroids)
            residual = z - centroids[assignment]
            loss = config.cluster_weight * float((residual**2).mean())
            dz = 2 * config.cluster_weight * residual / z.size
            return dz, loss

        for step in range(config.joint_steps):
            history.append(training_step(cluster_gradient))
            if (step + 1) % config.centroid_refresh == 0:
                embeddings = self._variable_embeddings(
                    model, sequences, num_variables
                )
                centroids = (
                    KMeans(effective_k, seed=config.seed).fit(embeddings).centroids
                )

        embeddings = self._variable_embeddings(model, sequences, num_variables)
        final = KMeans(effective_k, seed=config.seed).fit(embeddings)
        all_deltas = (
            np.concatenate([d for d in delta_traces if d.size])
            if any(d.size for d in delta_traces)
            else np.zeros(0, dtype=np.uint64)
        )
        return DLClusterResult(
            labels=final.labels,
            embeddings=embeddings,
            centroids=final.centroids,
            loss_history=history,
            elapsed_seconds=time.perf_counter() - start_time,
            vocab_coverage=vocab.coverage(all_deltas),
        )
