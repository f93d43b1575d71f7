"""Reference implementations of the FR-FCFS batch rule.

Both tiers once computed the rule themselves, each with a stable
argsort by bank followed by a 4-key ``np.lexsort``.  The package now
decides it with one primitive,
:func:`repro.hbm.fastmodel.frfcfs_batch_hits`.  The two lexsort
versions are kept here verbatim, outside the package, as oracles: the
primitive must produce the same hit flags.

``lexsort_row_hit_mask`` is the fast tier's former ``row_hit_mask``
body; ``lexsort_block_clause1`` is clause 1 of the vector tier's former
``_ChannelLane._flush_block``, in per-bank (sorted) order.
"""

from __future__ import annotations

import numpy as np

from repro.hbm.decode import DecodedTrace


def lexsort_row_hit_mask(
    decoded: DecodedTrace, reorder_window: int = 8
) -> np.ndarray:
    """Per-access hit flags in trace order (the fast tier's rule)."""
    n = len(decoded)
    if n == 0:
        return np.zeros(0, dtype=bool)
    window = max(1, reorder_window)
    # Rank of each access within its bank's sub-stream.
    bank_order = np.argsort(decoded.global_bank, kind="stable")
    bank_sorted = decoded.global_bank[bank_order]
    new_bank = np.ones(n, dtype=bool)
    new_bank[1:] = bank_sorted[1:] != bank_sorted[:-1]
    group_start = np.maximum.accumulate(np.where(new_bank, np.arange(n), 0))
    pos_in_bank = np.arange(n) - group_start
    batch = pos_in_bank // window
    # Within (bank, batch, row), everything after the first access hits.
    keys = np.empty(n, dtype=np.int64)
    keys[bank_order] = batch  # batch id, aligned back to trace order
    order = np.lexsort((np.arange(n), decoded.row, keys, decoded.global_bank))
    bank_g = decoded.global_bank[order]
    batch_g = keys[order]
    row_g = decoded.row[order]
    same = np.zeros(n, dtype=bool)
    same[1:] = (
        (bank_g[1:] == bank_g[:-1])
        & (batch_g[1:] == batch_g[:-1])
        & (row_g[1:] == row_g[:-1])
    )
    hits = np.empty(n, dtype=bool)
    hits[order] = same
    return hits


def lexsort_block_clause1(
    bank: np.ndarray, row: np.ndarray, frfcfs_window: int
):
    """Clause 1 of one vector block: ``(order, new_seg, hit_s)``.

    ``order`` is the stable bank order, ``new_seg`` flags the first
    request of each bank run and ``hit_s`` the clause-1 hits, both in
    that order.
    """
    window = max(1, frfcfs_window)
    m = bank.size
    order = np.argsort(bank, kind="stable")  # per-bank runs, trace order
    b_s = bank[order]
    r_s = row[order]
    new_seg = np.empty(m, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = b_s[1:] != b_s[:-1]
    positions = np.arange(m)
    seg_start = np.maximum.accumulate(np.where(new_seg, positions, 0))
    rank = positions - seg_start
    batch = rank // window

    # Hit rule, clause 1: the row already occurred in this (bank,
    # batch) — FR-FCFS serves same-row requests in the lookahead
    # window back to back, so only the first of the group misses.
    lex = np.lexsort((positions, r_s, batch, b_s))
    dup = np.zeros(m, dtype=bool)
    dup[1:] = (
        (b_s[lex][1:] == b_s[lex][:-1])
        & (batch[lex][1:] == batch[lex][:-1])
        & (r_s[lex][1:] == r_s[lex][:-1])
    )
    hit_s = np.zeros(m, dtype=bool)
    hit_s[lex] = dup
    return order, new_seg, hit_s
