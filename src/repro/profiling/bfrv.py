"""Bit-flip-rate vectors (Equation 1).

For a physical-address trace ``a_1 .. a_n``, the flip rate of bit *i* is
the fraction of consecutive pairs in which bit *i* differs:

    bfr_i = (1/n) * sum_j  bit_i(a_j) XOR bit_i(a_{j+1})

Bits that flip often separate *temporally adjacent* accesses, so routing
them to the channel field spreads concurrent requests across channels —
the selection rule shared by Experiment 1 (Fig. 3b) and the bit-shuffle
configurations.

Degenerate traces never raise: a trace with fewer than two accesses has
no consecutive pairs, and a constant trace has no flips; both yield the
all-zero vector.  Callers that need to distinguish "genuinely calm"
from "nothing to measure" (the online estimator consuming arbitrary
stream windows) pass a ``flags`` dict, which comes back with
``flags["degenerate"]`` set to ``"short-trace"`` or
``"constant-addresses"`` when that happened.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProfilingError

__all__ = [
    "DEGENERATE_CONSTANT",
    "DEGENERATE_SHORT",
    "bit_flip_rate_vector",
    "flip_counts",
    "window_flip_rates",
]

#: ``flags["degenerate"]`` value for traces with fewer than two accesses.
DEGENERATE_SHORT = "short-trace"
#: ``flags["degenerate"]`` value for constant-address traces (pairs
#: exist but no bit ever flips).
DEGENERATE_CONSTANT = "constant-addresses"


def flip_counts(
    diffs: np.ndarray, num_bits: int, bit_offset: int = 0
) -> np.ndarray:
    """Per-bit flip counts of a XOR-delta stream (``int64`` vector).

    The shared integer core of the batch and streaming estimators: the
    batch rate is ``counts / len(diffs)`` and the streaming estimator
    accumulates these counts across windows, so dividing the
    accumulated sums reproduces the batch division bit-exactly.
    """
    if num_bits <= 0:
        raise ProfilingError("num_bits must be positive")
    diffs = np.asarray(diffs, dtype=np.uint64)
    counts = np.empty(num_bits, dtype=np.int64)
    for bit in range(num_bits):
        shift = np.uint64(bit_offset + bit)
        counts[bit] = int(((diffs >> shift) & np.uint64(1)).sum())
    return counts


def _flag(flags: dict | None, value: str | None) -> None:
    if flags is not None:
        flags["degenerate"] = value


def bit_flip_rate_vector(
    addresses: np.ndarray,
    num_bits: int,
    bit_offset: int = 0,
    flags: dict | None = None,
) -> np.ndarray:
    """Flip rate of ``num_bits`` address bits starting at ``bit_offset``.

    Returns a float vector of length ``num_bits`` (index 0 = bit
    ``bit_offset``).  A trace with fewer than two accesses has no
    consecutive pairs and yields all-zero rates; a constant-address
    trace yields all-zero rates as well.  ``flags``, when given, records
    which degeneracy (if any) produced a zero vector.
    """
    if num_bits <= 0:
        raise ProfilingError("num_bits must be positive")
    addresses = np.asarray(addresses, dtype=np.uint64)
    if addresses.size < 2:
        _flag(flags, DEGENERATE_SHORT)
        return np.zeros(num_bits)
    diffs = addresses[1:] ^ addresses[:-1]
    if not diffs.any():
        _flag(flags, DEGENERATE_CONSTANT)
        return np.zeros(num_bits)
    _flag(flags, None)
    counts = flip_counts(diffs, num_bits, bit_offset)
    return counts / float(diffs.size)


def window_flip_rates(
    addresses: np.ndarray,
    window: tuple[int, int],
    flags: dict | None = None,
) -> np.ndarray:
    """Flip rates for the chunk-offset window ``[low, high)``.

    Degenerate traces yield the zero vector (recorded in ``flags``)
    exactly as :func:`bit_flip_rate_vector`; only an empty bit window
    is a caller error.
    """
    low, high = window
    if high <= low:
        raise ProfilingError("empty bit window")
    return bit_flip_rate_vector(
        addresses, num_bits=high - low, bit_offset=low, flags=flags
    )
