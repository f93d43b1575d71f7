"""DL-assisted K-Means: the embedding LSTM autoencoder of Section 6.2.

The model (Fig. 9): each access is a (delta, VID) pair; delta and VID
are separately embedded, concatenated, and fed to an LSTM encoder whose
final hidden state is the sequence *embedding*.  A decoder LSTM
reconstructs the delta bit-vectors from the embedding; training first
minimises the reconstruction loss (Eq. 3), then continues jointly with
``L_total = L_reconstruct + lambda * L_cluster`` pulling embeddings
toward their K-Means centroids — the clustering-friendly-representation
trick the paper adopts from the deep-clustering literature.

Defaults are laptop-sized; ``paper_hyperparameters()`` returns the
Table 2 values for a full-scale run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.ml.adam import Adam
from repro.ml.embedding import DeltaVocabulary, Embedding
from repro.ml.kmeans import KMeans
from repro.ml.lstm import LSTMLayer, sigmoid

__all__ = [
    "AutoencoderConfig",
    "EmbeddingAutoencoder",
    "DLAssistedKMeans",
    "DLClusterResult",
    "paper_hyperparameters",
]


@dataclass(frozen=True)
class AutoencoderConfig:
    """Model + training sizes (Table 2, scaled down by default)."""

    sequence_length: int = 32  # Table 2
    delta_embed_dim: int = 16
    vid_embed_dim: int = 4
    hidden_dim: int = 32
    delta_vocab: int = 256
    pretrain_steps: int = 120
    joint_steps: int = 60
    batch_size: int = 32
    learning_rate: float = 0.001  # Table 2
    cluster_weight: float = 0.01  # Table 2's lambda
    centroid_refresh: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("sequence_length", "batch_size", "centroid_refresh"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        for name in ("pretrain_steps", "joint_steps"):
            if getattr(self, name) < 0:
                raise TrainingError(f"{name} must be >= 0")


def paper_hyperparameters() -> AutoencoderConfig:
    """The Table 2 configuration (256-dim, 500k steps)."""
    return AutoencoderConfig(
        sequence_length=32,
        delta_embed_dim=128,
        vid_embed_dim=128,
        hidden_dim=256,
        pretrain_steps=400_000,
        joint_steps=100_000,
        learning_rate=0.001,
        cluster_weight=0.01,
    )


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

    def _inputs(self, delta_ids: np.ndarray, vid_ids: np.ndarray) -> np.ndarray:
        """The encoder input: delta and VID vectors side by side."""
        delta_vectors = self.delta_embedding.forward(delta_ids)
        vid_vectors = self.vid_embedding.forward(vid_ids)
        return np.concatenate([delta_vectors, vid_vectors], axis=2)

    def forward(self, delta_ids: np.ndarray, vid_ids: np.ndarray):
        """Compute embeddings and reconstructions.

        Returns ``(z, reconstruction, cache)`` with ``z`` of shape
        (batch, hidden) and ``reconstruction`` (batch, time, bits).
        """
        _enc_out, z, enc_caches = self.encoder.forward(
            self._inputs(delta_ids, vid_ids)
        )
        # The decoder reads z at every step.
        dec_out, _h, dec_caches = self.decoder.forward_repeated(
            z, delta_ids.shape[1]
        )
        logits = dec_out @ self.params["out.W"] + self.params["out.b"]
        reconstruction = sigmoid(logits)
        cache = (delta_ids, vid_ids, enc_caches, dec_caches, dec_out, reconstruction)
        return z, reconstruction, cache

    def embed(self, delta_ids: np.ndarray, vid_ids: np.ndarray) -> np.ndarray:
        """Embeddings only: one encoder pass that keeps no BPTT caches."""
        return self.encoder.final_hidden(self._inputs(delta_ids, vid_ids))

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


@dataclass
class DLClusterResult:
    """Outcome of the DL-assisted clustering pipeline."""

    labels: np.ndarray  # cluster id per input variable (profile order)
    embeddings: np.ndarray  # (num_variables, hidden)
    centroids: np.ndarray
    loss_history: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    vocab_coverage: float = 0.0


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
        all_deltas: np.ndarray,
        window: tuple[int, int],
    ):
        """Chop per-variable delta traces into fixed-length sequences."""
        length = self.config.sequence_length
        low, high = window
        bits = high - low
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
            # One byte per bit; ``_batch`` widens a batch's to float64.
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

    @staticmethod
    def _distinct_rows(sequences):
        """``(variables, distinct, inverse)`` for the embedding passes.

        ``variables`` holds each sequence's variable, ``distinct`` each
        distinct ``[variable, *delta_ids]`` row once, and
        ``distinct[inverse]`` the rows in sequence order.
        """
        variables = np.array([sequence[0] for sequence in sequences])
        rows = np.column_stack(
            [variables, np.stack([sequence[1] for sequence in sequences])]
        )
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
        return variables, distinct, inverse.reshape(-1)

    @staticmethod
    def _embed(model: EmbeddingAutoencoder, rows: np.ndarray) -> np.ndarray:
        """Embeddings of ``[variable, *delta_ids]`` rows."""
        steps = rows.shape[1] - 1
        return model.embed(rows[:, 1:], np.repeat(rows[:, :1], steps, axis=1))

    def _variable_embeddings(
        self, model: EmbeddingAutoencoder, rows, num_variables: int
    ) -> np.ndarray:
        """Mean embedding per variable over its sequences.

        Embeds each distinct row once, in ``batch_size`` chunks, then sums
        the embeddings in sequence order.  numpy multiplies a one-row
        batch through gemv, which rounds differently from gemm, so each
        row is embedded in a batch of the kind that chunking the
        sequences themselves would give it: only the last of
        ``len % batch_size == 1`` sequences (or every sequence, when
        ``batch_size`` is 1) goes alone.
        """
        variables, distinct, inverse = rows
        batch = self.config.batch_size
        parts = []
        for start in range(0, len(distinct), batch):
            chunk = distinct[start : start + batch]
            # A lone row goes through gemm as one of a pair.
            pair = np.repeat(chunk, 2, axis=0) if len(chunk) == 1 < batch else chunk
            parts.append(self._embed(model, pair)[: len(chunk)])
        z = np.concatenate(parts)[inverse]
        if len(variables) % batch == 1 < batch:
            z[-1] = self._embed(model, distinct[inverse[-1:]])[0]
        sums = np.zeros((num_variables, self.config.hidden_dim))
        np.add.at(sums, variables, z)
        counts = np.bincount(variables, minlength=num_variables).astype(np.float64)
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
        all_deltas = (
            np.concatenate([d for d in delta_traces if d.size])
            if any(d.size for d in delta_traces)
            else np.zeros(0, dtype=np.uint64)
        )
        vocab, sequences = self._build_dataset(delta_traces, all_deltas, window)
        rows = self._distinct_rows(sequences)
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
        kmeans = KMeans(effective_k, seed=config.seed)
        embeddings = self._variable_embeddings(model, rows, num_variables)
        clusters = kmeans.fit(embeddings)
        centroids = clusters.centroids

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
                embeddings = self._variable_embeddings(model, rows, num_variables)
                clusters = kmeans.fit(embeddings)
                centroids = clusters.centroids

        # Unless a refresh fell on the last step, the model has moved
        # since ``clusters`` was fitted.
        if config.joint_steps % config.centroid_refresh:
            embeddings = self._variable_embeddings(model, rows, num_variables)
            clusters = kmeans.fit(embeddings)
        return DLClusterResult(
            labels=clusters.labels,
            embeddings=embeddings,
            centroids=clusters.centroids,
            loss_history=history,
            elapsed_seconds=time.perf_counter() - start_time,
            vocab_coverage=vocab.coverage(all_deltas),
        )
