"""Vectorised HBM device model — the ``"vector"`` fidelity tier.

The event-driven :class:`~repro.hbm.device.HBMDevice` is the reference
model, but it runs one pure-Python loop step per request, which
dominates end-to-end ``evaluate`` time at scale.
:class:`VectorModel` replaces the event loop with numpy scans over
sorted ``(channel, bank)`` request runs while keeping the same timing
vocabulary (per-bank row-buffer state, per-channel data-bus
serialisation, a global in-flight window), so it stays cycle-calibrated
to the event tier (``tests/hbm/test_calibration.py`` asserts declared
per-scenario tolerances on all six paper systems).

How one channel's substream is evaluated
----------------------------------------

Channels are independent (the paper's CLP argument), so each channel's
requests form a private substream, processed sequentially in fixed
blocks of ``block_accesses`` requests:

* **Row hits** — the shared :func:`~repro.hbm.fastmodel.frfcfs_batch_hits`
  turns the block into per-bank runs.  A request hits when its row
  already occurred in the same FR-FCFS batch (``frfcfs_window``
  same-bank requests — the scheduler's reorder credit) or continues
  the bank's open row, carried across batches and blocks: the event
  scheduler's behaviour without the queue dynamics.
* **Timing** — the event recurrence ``done_i = max(bank_ready + cost_i,
  bus_free + t_burst)`` is a longest path through a DAG with per-bank
  edges (weight = hit/miss cost) and per-channel bus edges (weight =
  ``t_burst``).  Pure bank chains close in one segmented ``cumsum``;
  pure bus chains close in one ``maximum.accumulate`` (subtract the
  ramp ``(rank+1)*t_burst``, cummax, add it back).  Alternating
  bank/bus critical paths are resolved by iterating the two closures
  toward a fixed point — monotone and bounded by the exact longest
  path — for at most ``MAX_RELAX_ROUNDS`` rounds per block.  Each round
  resolves one more bank/bus alternation, and copy streams have many:
  on ``tier-calib``'s copies (4 strides x 8,192 accesses) every one of
  the 32 channel blocks of BS+HM and SDM+BSM stops at the cap
  unconverged, and 8 of BS+DM's 32 do (the other 24 converge in 36–40
  rounds).  Run to the fixed point they need 458–507, 471–876 and up
  to 2,831 rounds, and the BS+DM and SDM+BSM makespans rise from
  113,070 to 190,495 ns and from 23,465 to 46,810 ns (BS+HM's stays on
  its in-flight floor).  So the cap is part of the tier's model, not a
  safety net: it bounds the tier's cost, and its results are pinned
  with it (``tests/hbm/test_vectormodel.py`` shows that it binds).
* **Admission** — the global ``max_inflight`` window is modelled as a
  Little's-law floor (``total service cost / max_inflight``) applied
  after the per-channel reduction, not as per-request arrival times.
  The window rarely moves the *makespan* (a saturated channel dominates
  it either way); it mostly shapes idle-channel lag, which the
  calibration tolerances absorb.

Every channel is evaluated independently, and its blocks are cut at
fixed multiples of ``block_accesses`` of that channel's own requests,
so a block boundary never depends on another channel's traffic
(``tests/hbm/test_tier_golden.py`` pins a small-block run).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cpu.trace import radix_argsort
from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace, decode_trace, forced_miss_mask, request_count
from repro.hbm.fastmodel import frfcfs_batch_hits
from repro.hbm.stats import RunStats

__all__ = ["VectorModel"]

#: Per-channel block size: large enough to amortise numpy call overhead,
#: small enough that a block's temporaries stay small.
DEFAULT_BLOCK_ACCESSES = 16384

#: Cap on bank/bus closure rounds per block.  Each round resolves one
#: more bank/bus alternation on the critical path.  Copy streams need
#: hundreds to thousands of rounds to converge, so the cap binds on
#: them and truncates the makespan (see the module docstring).
MAX_RELAX_ROUNDS = 64


class _ChannelLane:
    """Sequential block evaluator for one channel's request substream.

    Carries the cross-block device state: per-bank open rows and ready
    times, the channel data-bus horizon, and the served/hit/busy
    counters.  :meth:`run` walks the lane's substream in blocks of
    ``block_accesses`` requests, so block boundaries depend only on this
    lane's own request count.
    """

    def __init__(
        self,
        config: HBMConfig,
        frfcfs_window: int,
        block_accesses: int,
    ):
        banks = config.banks_per_channel
        self.t_burst = config.effective_t_burst_ns
        self.t_miss = config.effective_t_row_miss_ns
        self.window = frfcfs_window
        self.block = block_accesses
        self.open_row = np.full(banks, -1, dtype=np.int64)
        self.bank_ready = np.zeros(banks, dtype=np.float64)
        self.bus_free = 0.0  # also the last completion (bus serialises)
        self.busy_ns = 0.0
        self.served = 0
        self.hits = 0
        self.misses = 0

    def run(
        self, bank: np.ndarray, row: np.ndarray, forced: np.ndarray
    ) -> None:
        """Evaluate this channel's whole substream, block by block."""
        for lo in range(0, bank.size, self.block):
            hi = lo + self.block
            self._run_block(bank[lo:hi], row[lo:hi], forced[lo:hi])

    # -- one block ----------------------------------------------------------
    def _run_block(
        self, bank: np.ndarray, row: np.ndarray, forced: np.ndarray
    ) -> None:
        m = bank.size
        # Hit rule, clause 1: the row already occurred in this (bank,
        # batch) — FR-FCFS serves same-row requests in the lookahead
        # window back to back, so only the first of the group misses.
        order, new_seg, hit_s = frfcfs_batch_hits(bank, row, self.window)
        b_s = bank[order]
        r_s = row[order]
        positions = np.arange(m)
        seg_start = np.maximum.accumulate(np.where(new_seg, positions, 0))
        # Clause 2: the row continues the bank's open row (carried across
        # batches and blocks).  Inside a batch this is subsumed by
        # clause 1, so applying it everywhere is harmless.
        prev_row = np.empty(m, dtype=np.int64)
        prev_row[~new_seg] = r_s[np.nonzero(~new_seg)[0] - 1]
        prev_row[new_seg] = self.open_row[b_s[new_seg]]
        hit_s |= r_s == prev_row
        hit_s &= ~forced[order]  # ECC retries pay the full miss cost
        cost_s = np.where(hit_s, self.t_burst, self.t_miss)

        # Timing: longest path over bank edges (cost) and bus edges
        # (t_burst).  Work in trace order; precompute the in-bank
        # predecessor of every request.
        prev_sorted = np.full(m, -1, dtype=np.int64)
        prev_sorted[~new_seg] = order[np.nonzero(~new_seg)[0] - 1]
        prev_idx = np.empty(m, dtype=np.int64)
        prev_idx[order] = prev_sorted
        first = prev_idx < 0
        safe_prev = np.maximum(prev_idx, 0)
        cost = np.empty(m, dtype=np.float64)
        cost[order] = cost_s
        base = np.zeros(m, dtype=np.float64)
        base[first] = self.bank_ready[bank[first]]

        # Init with the pure bank-chain closure: carried ready time plus
        # the cumulative cost of this block's earlier requests per bank.
        cum = np.cumsum(cost_s)
        chain_s = cum - (cum[seg_start] - cost_s[seg_start])
        chain_s += self.bank_ready[b_s]
        done = np.empty(m, dtype=np.float64)
        done[order] = chain_s

        ramp = (positions + 1.0) * self.t_burst
        for _ in range(MAX_RELAX_ROUNDS):
            cand = np.where(first, base, done[safe_prev]) + cost
            shifted = cand - ramp
            shifted[0] = max(shifted[0], self.bus_free)
            relaxed = np.maximum.accumulate(shifted) + ramp
            if np.array_equal(relaxed, done):
                break
            done = relaxed

        # Channel busy time: union of [bank_start, done] intervals, the
        # same formula the event channel accumulates.
        start = np.where(first, base, done[safe_prev])
        prev_done = np.empty(m, dtype=np.float64)
        prev_done[0] = self.bus_free
        prev_done[1:] = done[:-1]
        self.busy_ns += float(np.sum(done - np.maximum(start, prev_done)))

        # Carry state forward: last completion per bank, its open row,
        # and the bus horizon (``done`` is non-decreasing).
        seg_end = np.empty(m, dtype=bool)
        seg_end[:-1] = new_seg[1:]
        seg_end[-1] = True
        touched = b_s[seg_end]
        self.bank_ready[touched] = done[order[seg_end]]
        self.open_row[touched] = r_s[seg_end]
        self.bus_free = float(done[-1])
        block_hits = int(np.count_nonzero(hit_s))
        self.hits += block_hits
        self.misses += m - block_hits
        self.served += m


def _run_lanes(
    config: HBMConfig,
    frfcfs_window: int,
    block_accesses: int,
    decoded: DecodedTrace,
    forced: np.ndarray | None,
) -> RunStats:
    """Evaluate every channel's substream; return the merged RunStats.

    The stats carry the raw per-channel chain makespan — the caller
    applies the global in-flight floor.
    """
    num_channels = config.num_channels
    lanes = [
        _ChannelLane(config, frfcfs_window, block_accesses)
        for _ in range(num_channels)
    ]
    channel = np.asarray(decoded.channel)
    order = radix_argsort(channel)
    channel_s = channel[order]
    bank_s = np.asarray(decoded.bank)[order]
    row_s = np.asarray(decoded.row)[order]
    if forced is None:
        forced_s = np.zeros(len(decoded), dtype=bool)
    else:
        forced_s = forced[order]
    bounds = np.searchsorted(channel_s, np.arange(num_channels + 1))
    for c, lane in enumerate(lanes):
        left, right = bounds[c], bounds[c + 1]
        lane.run(bank_s[left:right], row_s[left:right], forced_s[left:right])
    per_channel_requests = np.zeros(num_channels, dtype=np.int64)
    per_channel_busy = np.zeros(num_channels, dtype=np.float64)
    requests = hits = misses = 0
    makespan = 0.0
    for c, lane in enumerate(lanes):
        per_channel_requests[c] = lane.served
        per_channel_busy[c] = lane.busy_ns
        requests += lane.served
        hits += lane.hits
        misses += lane.misses
        makespan = max(makespan, lane.bus_free)
    return RunStats(
        requests=requests,
        bytes_moved=requests * config.line_bytes,
        makespan_ns=makespan,
        row_hits=hits,
        row_misses=misses,
        num_channels=num_channels,
        per_channel_requests=per_channel_requests,
        per_channel_busy_ns=per_channel_busy,
    )


class VectorModel:
    """Vectorised multi-channel memory device (the ``"vector"`` tier)."""

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        frfcfs_window: int = 8,
        block_accesses: int = DEFAULT_BLOCK_ACCESSES,
    ):
        self.config = config
        self.max_inflight = request_count("max_inflight", max_inflight)
        self.frfcfs_window = request_count("frfcfs_window", frfcfs_window)
        self.block_accesses = request_count("block_accesses", block_accesses)

    # -- entry points -------------------------------------------------------
    def simulate(self, ha: np.ndarray) -> RunStats:
        """Run a hardware-address trace (decode, then simulate)."""
        ha = np.asarray(ha, dtype=np.uint64)
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(
        self,
        decoded: DecodedTrace,
        forced_miss: np.ndarray | None = None,
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``forced_miss`` (optional boolean mask, one flag per access)
        marks ECC retries that pay the full miss cost.
        """
        forced_miss = forced_miss_mask(decoded, forced_miss)
        merged = _run_lanes(
            self.config,
            self.frfcfs_window,
            self.block_accesses,
            decoded,
            forced_miss,
        )
        return self._finalize(merged)

    # -- pieces -------------------------------------------------------------
    def _finalize(self, merged: RunStats) -> RunStats:
        """Apply the global in-flight window as a Little's-law floor."""
        if merged.requests == 0:
            return merged
        total_cost = (
            merged.row_hits * self.config.effective_t_burst_ns
            + merged.row_misses * self.config.effective_t_row_miss_ns
        )
        floor = total_cost / self.max_inflight
        if floor > merged.makespan_ns:
            merged = replace(merged, makespan_ns=floor)
        return merged
