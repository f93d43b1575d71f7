"""Embedding layers for the (delta, VID) input pairs (Fig. 9).

The address delta is a categorical value (the XOR of two consecutive
addresses); a vocabulary keeps the most frequent deltas and buckets the
rest into an out-of-vocabulary id, as learned-prefetching work does.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import TrainingError

__all__ = ["Embedding", "DeltaVocabulary"]


class Embedding:
    """A lookup table with sparse gradient accumulation."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        params: dict[str, np.ndarray],
        prefix: str,
        rng: np.random.Generator,
    ):
        if vocab_size < 1 or dim < 1:
            raise TrainingError("vocab size and dim must be positive")
        self.vocab_size = vocab_size
        self.dim = dim
        self.prefix = prefix
        params[f"{prefix}.table"] = rng.normal(0, 0.1, (vocab_size, dim))
        self.params = params

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """The table rows for ``ids``, shaped ``ids.shape + (dim,)``."""
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise TrainingError("embedding id out of range")
        return self.params[f"{self.prefix}.table"][ids]

    def backward(
        self, ids: np.ndarray, d_vectors: np.ndarray, grads: dict[str, np.ndarray]
    ) -> None:
        """Scatter-add ``d_vectors`` into the table gradient, one row per id."""
        key = f"{self.prefix}.table"
        grads.setdefault(key, np.zeros_like(self.params[key]))
        flat_ids = np.asarray(ids).reshape(-1)
        flat_grad = d_vectors.reshape(-1, self.dim)
        np.add.at(grads[key], flat_ids, flat_grad)


class DeltaVocabulary:
    """Top-K address deltas -> dense ids; everything else -> OOV (id 0)."""

    OOV = 0

    def __init__(self, max_size: int = 256):
        if max_size < 2:
            raise TrainingError("vocabulary needs room for OOV plus one delta")
        self.max_size = max_size
        # The kept deltas in ascending order, and the id of each.
        self._keys = np.zeros(0, dtype=np.uint64)
        self._key_ids = np.zeros(0, dtype=np.int64)

    def fit(self, deltas: np.ndarray) -> "DeltaVocabulary":
        """Keep the ``max_size - 1`` most frequent deltas; returns self.

        Ids run from 1 in order of falling count; ties go to the delta
        seen first.
        """
        counts = Counter(np.asarray(deltas, dtype=np.uint64).tolist())
        most_common = counts.most_common(self.max_size - 1)
        keys = np.array([delta for delta, _count in most_common], dtype=np.uint64)
        order = np.argsort(keys)
        self._keys = keys[order]
        self._key_ids = order.astype(np.int64) + 1
        return self

    @property
    def size(self) -> int:
        """Number of ids, the OOV id included."""
        return len(self._keys) + 1

    def encode(self, deltas: np.ndarray) -> np.ndarray:
        """Map integer deltas to vocabulary ids (OOV for unknown)."""
        values = np.asarray(deltas)
        ids = np.full(values.shape, self.OOV, dtype=np.int64)
        if not len(self._keys):
            return ids
        known = values >= 0  # a negative value is never a kept delta
        queries = values[known].astype(np.uint64)
        slots = np.searchsorted(self._keys, queries)
        np.minimum(slots, len(self._keys) - 1, out=slots)
        found = self._keys[slots] == queries
        ids[known] = np.where(found, self._key_ids[slots], self.OOV)
        return ids

    def coverage(self, deltas: np.ndarray) -> float:
        """Fraction of deltas that map to a real (non-OOV) id."""
        if len(deltas) == 0:
            return 0.0
        ids = self.encode(deltas)
        return float((ids != self.OOV).mean())
