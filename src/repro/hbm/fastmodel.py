"""Vectorised analytic HBM service model (the fast fidelity tier).

The model bounds a trace's makespan by three mechanisms, mirroring the
contention structure of 3D memory (Section 2.1):

* **channel data bus** — transfers serialise per channel: one
  ``t_burst`` per request, so the busiest channel's bus occupancy
  bounds the run (this is the CLP term: a stride that collapses onto
  one channel pays the whole trace serially — Fig. 3's ~20x drop);
* **bank service** — each request occupies its bank for the full
  hit/miss cost, banks operate in parallel (BLP hides activations as
  long as traffic spreads across banks), so the busiest *bank* also
  bounds its channel;
* **request concurrency** — the core/accelerator sustains at most
  ``max_inflight`` outstanding requests, so by Little's law the run
  takes at least ``sum(service costs) / max_inflight``.

Row hits follow the FR-FCFS batch rule of :func:`frfcfs_batch_hits`
(shared with the vector tier), as in the event tier's scheduler.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import radix_argsort
from repro.hbm.config import HBMConfig
from repro.hbm.decode import (
    DecodedTrace,
    decode_trace,
    forced_miss_mask,
    request_count,
)
from repro.hbm.stats import RunStats

__all__ = ["WindowModel", "frfcfs_batch_hits", "row_hit_mask"]


def frfcfs_batch_hits(bank: np.ndarray, row: np.ndarray, window: int):
    """The FR-FCFS batch rule, per bank: ``(order, new_run, hit)``.

    ``order`` is the stable bank order, so each bank's run keeps trace
    order; ``new_run`` flags each run's first request.  Runs are cut
    into batches of ``window`` requests, and ``hit`` (in bank order)
    flags a request whose row already occurred earlier in its batch.

    One radix sort by bank, then a look-back: pass ``d`` (for ``d`` in
    ``1 .. window - 1``) compares each request's row with the request
    ``d`` places earlier in bank order, and counts the match only when
    that request is in the same batch, i.e. when the request's slot in
    its batch is at least ``d``.  Passes beyond the longest bank run
    cannot match, so there are ``min(window, longest run) - 1`` of
    them, each four vector operations over the stream, and the cost
    grows with the window.  On one 65,781-request ``fig12-cpu`` stream
    (median of 60 calls interleaved with the former rule, which sorted
    each batch by row, on a 2-vCPU VM) it took 5.4 ms at window 8, the
    default and the only window any caller sets, against 8.5 ms; 4.9
    against 6.8 at 16, 5.8 against 6.8 at 32, and 8.4 against 7.3 at
    64.
    """
    order = radix_argsort(bank)
    b_s = bank[order]
    n = b_s.size
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = b_s[1:] != b_s[:-1]
    window = max(1, window)
    starts = np.flatnonzero(new_run)
    lengths = np.diff(starts, append=n)
    slot = np.arange(n) - np.repeat(starts, lengths)
    slot %= window
    r_s = row[order]
    hit = np.zeros(n, dtype=bool)
    same = np.empty(n, dtype=bool)
    in_batch = np.empty(n, dtype=bool)
    for d in range(1, min(window, int(lengths.max(initial=0)))):
        np.equal(r_s[d:], r_s[:-d], out=same[d:])
        np.greater_equal(slot[d:], d, out=in_batch[d:])
        same[d:] &= in_batch[d:]
        hit[d:] |= same[d:]
    return order, new_run, hit


def row_hit_mask(decoded: DecodedTrace, reorder_window: int = 8) -> np.ndarray:
    """Per-access row-buffer hit flags with FR-FCFS batching.

    A real controller reorders its queue to serve same-row requests
    back to back, so two interleaved streams alternating rows in one
    bank do not thrash: within each batch of ``reorder_window``
    consecutive accesses *to a bank*, all requests to the same row
    after the first are hits (:func:`frfcfs_batch_hits`).  No open row
    is carried between batches (the vector tier carries it), so each
    batch's first access misses and ``reorder_window=1`` never hits.
    """
    order, _, hit = frfcfs_batch_hits(
        decoded.global_bank, decoded.row, reorder_window
    )
    hits = np.empty(len(decoded), dtype=bool)
    hits[order] = hit
    return hits


class WindowModel:
    """Fast trace-driven service model for one memory device."""

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        reorder_window: int = 8,
    ):
        self.config = config
        self.max_inflight = request_count("max_inflight", max_inflight)
        self.reorder_window = request_count("reorder_window", reorder_window)

    def simulate(self, ha: np.ndarray) -> RunStats:
        """Run a hardware-address trace; return aggregate statistics."""
        ha = np.asarray(ha, dtype=np.uint64)
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(
        self, decoded: DecodedTrace, forced_miss: np.ndarray | None = None
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``forced_miss`` (optional boolean mask, one flag per access)
        marks requests whose row buffer cannot be trusted — ECC retries
        on degraded hardware — and charges them the full miss cost
        regardless of locality.
        """
        forced_miss = forced_miss_mask(decoded, forced_miss)
        n = len(decoded)
        channels = self.config.num_channels
        if n == 0:
            return RunStats.empty(channels)
        hits = row_hit_mask(decoded, self.reorder_window)
        if forced_miss is not None:
            hits = hits & ~forced_miss
        t_burst = self.config.effective_t_burst_ns
        cost = np.where(hits, t_burst, self.config.effective_t_row_miss_ns)
        banks_per_channel = self.config.banks_per_channel
        # Bus occupancy: one burst per request, serial per channel.
        bus = (
            np.bincount(decoded.channel, minlength=channels).astype(np.float64)
            * t_burst
        )
        # Bank service time: full hit/miss cost, serial per bank.
        bank_total = np.bincount(
            decoded.global_bank,
            weights=cost,
            minlength=channels * banks_per_channel,
        )
        bank_bound = bank_total.reshape(channels, banks_per_channel).max(axis=1)
        per_channel_busy = np.maximum(bus, bank_bound)
        bandwidth_bound = float(per_channel_busy.max())
        concurrency_bound = float(cost.sum()) / self.max_inflight
        makespan = max(bandwidth_bound, concurrency_bound)
        per_channel_requests = np.bincount(decoded.channel, minlength=channels)
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=makespan,
            row_hits=int(hits.sum()),
            row_misses=int(n - hits.sum()),
            num_channels=channels,
            per_channel_requests=per_channel_requests,
            per_channel_busy_ns=per_channel_busy,
        )
