"""Streaming bit-flip statistics for online mapping adaptation.

The offline pipeline (Section 6.2) profiles a whole run, then selects
mappings once.  The online controller instead watches the external
memory trace *as it happens*, in windows, and needs the same bit-flip
statistics incrementally.  :class:`StreamingBFRV` is an
exponentially-decayed bit-flip-rate vector: each window's XOR-delta
flip counts fold into decayed accumulators; with ``decay=1.0`` the
accumulated counts over concatenated windows are exactly the batch
counts, so the streamed rate is **bit-exact** with
:func:`repro.profiling.bfrv.bit_flip_rate_vector` on the full trace
(tested property).  The boundary pair between the last address of one
window and the first of the next is counted, which is what makes the
equivalence hold for any window split.

Degenerate windows (fewer than two addresses, or constant addresses)
never raise — they are counted and flagged, matching the hardened
batch estimator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProfilingError
from repro.profiling.bfrv import (
    DEGENERATE_CONSTANT,
    DEGENERATE_SHORT,
    flip_counts,
)

__all__ = ["StreamingBFRV"]


class StreamingBFRV:
    """Exponentially-decayed bit-flip-rate vector over trace windows.

    Per window, per-bit flip counts and pair counts are folded in as

        counts = decay * counts + window_flip_counts
        pairs  = decay * pairs  + window_pairs

    and the current estimate is ``counts / pairs``.  ``decay=1.0``
    degenerates to the batch estimator over everything seen so far;
    smaller decays forget old phases faster (a decay of ``d`` halves a
    window's weight every ``log(0.5)/log(d)`` windows).
    """

    def __init__(
        self,
        num_bits: int,
        bit_offset: int = 0,
        decay: float = 0.5,
    ):
        if num_bits <= 0:
            raise ProfilingError("num_bits must be positive")
        if not 0.0 < decay <= 1.0:
            raise ProfilingError("decay must be in (0, 1]")
        self.num_bits = num_bits
        self.bit_offset = bit_offset
        self.decay = decay
        self._counts = np.zeros(num_bits, dtype=np.float64)
        self._pairs = 0.0
        self._last: np.uint64 | None = None
        self.windows_seen = 0
        self.degenerate_windows = 0
        #: Degeneracy of the most recent window (None when it carried
        #: measurable flips), mirroring the batch ``flags`` protocol.
        self.last_degenerate: str | None = None

    def update(self, addresses: np.ndarray) -> np.ndarray:
        """Fold one trace window in; returns the updated rate vector.

        The pair between the previous window's last address and this
        window's first address is included, so concatenating windows
        loses no information relative to the batch estimator.
        """
        addresses = np.asarray(addresses, dtype=np.uint64).ravel()
        self.windows_seen += 1
        self._counts *= self.decay
        self._pairs *= self.decay
        stream = addresses
        if self._last is not None and addresses.size:
            stream = np.concatenate(
                [np.array([self._last], dtype=np.uint64), addresses]
            )
        if addresses.size:
            self._last = addresses[-1]
        if stream.size < 2:
            self.last_degenerate = DEGENERATE_SHORT
            self.degenerate_windows += 1
            return self.rates
        diffs = stream[1:] ^ stream[:-1]
        # Constant windows still contribute pairs (the batch denominator
        # counts them); the flag just records that nothing flipped.
        if not diffs.any():
            self.last_degenerate = DEGENERATE_CONSTANT
            self.degenerate_windows += 1
        else:
            self.last_degenerate = None
            self._counts += flip_counts(diffs, self.num_bits, self.bit_offset)
        self._pairs += float(diffs.size)
        return self.rates

    @property
    def rates(self) -> np.ndarray:
        """The current decayed flip-rate estimate (zeros before data)."""
        if self._pairs <= 0.0:
            return np.zeros(self.num_bits)
        return self._counts / self._pairs

    def __repr__(self) -> str:
        return (
            f"StreamingBFRV(bits={self.num_bits}+{self.bit_offset}, "
            f"decay={self.decay}, windows={self.windows_seen})"
        )
