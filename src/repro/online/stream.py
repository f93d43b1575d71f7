"""Streaming access-pattern estimators for online mapping adaptation.

The offline pipeline (Section 6.2) profiles a whole run, then selects
mappings once.  The online controller instead watches the external
memory trace *as it happens*, in windows, and needs the same bit-flip
statistics incrementally:

* :class:`StreamingBFRV` — an exponentially-decayed bit-flip-rate
  vector.  Each window's XOR-delta flip counts fold into decayed
  accumulators; with ``decay=1.0`` the accumulated counts over
  concatenated windows are exactly the batch counts, so the streamed
  rate is **bit-exact** with :func:`repro.profiling.bfrv.
  bit_flip_rate_vector` on the full trace (tested property).  The
  boundary pair between the last address of one window and the first
  of the next is counted, which is what makes the equivalence hold for
  any window split.
* :class:`VariableActivity` — decayed per-variable reference counts and
  page-granular footprints, the online analogue of the profiler's
  major-variable statistics.

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

__all__ = ["StreamingBFRV", "VariableActivity"]


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

    @property
    def pairs_weight(self) -> float:
        """Decayed number of consecutive pairs backing the estimate."""
        return self._pairs

    def reset(self, carry_last: bool = True) -> None:
        """Forget all statistics (optionally keeping the boundary address)."""
        self._counts[:] = 0.0
        self._pairs = 0.0
        if not carry_last:
            self._last = None

    def __repr__(self) -> str:
        return (
            f"StreamingBFRV(bits={self.num_bits}+{self.bit_offset}, "
            f"decay={self.decay}, windows={self.windows_seen})"
        )


class VariableActivity:
    """Decayed per-variable reference counts and page footprints.

    The online stand-in for the profiler's major-variable analysis:
    which variables dominate the recent external traffic, and how many
    distinct pages each touched.  Footprints are per-window distinct
    page counts folded with the same decay as references — an
    inexpensive working-set proxy, not an exact union over time.
    """

    def __init__(self, page_bits: int = 12, decay: float = 0.5):
        if not 0.0 < decay <= 1.0:
            raise ProfilingError("decay must be in (0, 1]")
        self.page_bits = page_bits
        self.decay = decay
        self.references: dict[int, float] = {}
        self.footprint_pages: dict[int, float] = {}
        self.windows_seen = 0

    def update(self, addresses: np.ndarray, variable: np.ndarray) -> None:
        """Fold one window's tagged accesses in (one pass per window)."""
        addresses = np.asarray(addresses, dtype=np.uint64).ravel()
        variable = np.asarray(variable, dtype=np.int64).ravel()
        if addresses.size != variable.size:
            raise ProfilingError("addresses and variable tags disagree")
        self.windows_seen += 1
        for table in (self.references, self.footprint_pages):
            for key in table:
                table[key] *= self.decay
        if addresses.size == 0:
            return
        pages = addresses >> np.uint64(self.page_bits)
        tags, refs = np.unique(variable, return_counts=True)
        # One sort of the (tag, page) pairs: each tag's run of distinct
        # pages is its footprint this window.
        order = np.lexsort((pages, variable))
        tag, page = variable[order], pages[order]
        fresh = np.ones(tag.size, dtype=bool)
        fresh[1:] = (tag[1:] != tag[:-1]) | (page[1:] != page[:-1])
        distinct = np.bincount(
            np.searchsorted(tags, tag[fresh]), minlength=tags.size
        )
        references, footprints = self.references, self.footprint_pages
        for var, count, spread in zip(
            tags.tolist(), refs.tolist(), distinct.tolist()
        ):
            references[var] = references.get(var, 0.0) + float(count)
            footprints[var] = footprints.get(var, 0.0) + float(spread)

    def majors(self, coverage: float = 0.8) -> list[int]:
        """Variables covering ``coverage`` of decayed references."""
        if not 0 < coverage <= 1:
            raise ProfilingError("coverage must be in (0, 1]")
        total = sum(self.references.values())
        ranked = sorted(
            self.references.items(), key=lambda item: (-item[1], item[0])
        )
        majors: list[int] = []
        accumulated = 0.0
        for var, refs in ranked:
            if accumulated >= coverage * total:
                break
            majors.append(var)
            accumulated += refs
        return majors
