"""Event-driven HBM device model — the reference fidelity tier.

Requests from the trace are admitted under a global in-flight window
(the MLP the core can sustain), queue per channel, and are issued
FR-FCFS against per-bank row-buffer state, with the channel data bus
serialising transfers.  Slower than :class:`~repro.hbm.fastmodel.
WindowModel` but models queueing and scheduler reordering explicitly;
``tests/hbm/test_model_agreement.py`` checks the two tiers agree.

The loop keeps all device state in flat lists — one queue, bus horizon
and busy time per channel, one open row and ready time per
channel-major bank — plus a heap of ``(start, channel)`` holding each
busy channel's next feasible start, so picking the channel to issue
from is a look at the heap's top.  The stream is read in blocks, each
turned into Python lists once (channel, bank, row-hit key, row,
arrival), and a queue entry is an index into them.  The loop admits the
first ``max_inflight`` requests, then issues one request and admits the
next at every step, then drains the queues.  The per-object loop it
replaced (one ``Channel`` and one ``Bank`` object each) lives on in
``tests/hbm/event_oracle.py`` as the reference
``tests/hbm/test_event_differential.py`` compares against bit for bit.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from itertools import chain

import numpy as np

from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace, decode_trace, forced_miss_mask, request_count
from repro.hbm.stats import RunStats

__all__ = ["HBMDevice"]

#: Requests per block of Python lists: the loop holds one block (plus
#: the queued requests it carries), however long the trace.
BLOCK_REQUESTS = 4096


class HBMDevice:
    """Event-driven multi-channel memory device."""

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        frfcfs_window: int = 8,
    ):
        self.config = config
        self.max_inflight = request_count("max_inflight", max_inflight)
        self.frfcfs_window = request_count("frfcfs_window", frfcfs_window)

    def simulate(self, ha: np.ndarray) -> RunStats:
        """Run a hardware-address trace through the device."""
        ha = np.asarray(ha, dtype=np.uint64)
        return self.simulate_decoded(decode_trace(ha, self.config))

    def _blocks(self, decoded: DecodedTrace, forced_miss):
        """Yield ``(channel, bank, row, key)`` arrays of at most
        :data:`BLOCK_REQUESTS` requests each, in trace order, with
        ``bank`` channel-major and ``key`` the rows with -1 for an ECC
        retry (``None`` when there are none)."""
        banks = self.config.banks_per_channel
        keys = None
        if forced_miss is not None:
            keys = np.where(forced_miss, -1, decoded.row)
        for lo in range(0, len(decoded), BLOCK_REQUESTS):
            hi = lo + BLOCK_REQUESTS
            channel = np.asarray(decoded.channel[lo:hi], dtype=np.int64)
            yield (
                channel,
                channel * banks + decoded.bank[lo:hi],
                decoded.row[lo:hi],
                None if keys is None else keys[lo:hi],
            )

    def simulate_decoded(
        self,
        decoded: DecodedTrace,
        forced_miss: np.ndarray | None = None,
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        The trace is cut into blocks of at most :data:`BLOCK_REQUESTS`
        requests; each becomes Python lists once, and the requests still
        queued at a block's end (at most ``max_inflight``) are
        re-indexed into the next block's lists, so the loop's memory is
        bounded by one block.  ``forced_miss`` (optional boolean mask,
        one flag per access) marks ECC-retry requests that must pay the
        full miss cost.
        """
        forced_miss = forced_miss_mask(decoded, forced_miss)
        num_channels = self.config.num_channels
        banks = self.config.banks_per_channel
        t_burst = self.config.effective_t_burst_ns
        t_miss = self.config.effective_t_row_miss_ns
        window = self.frfcfs_window
        max_inflight = self.max_inflight

        # Per channel: queued request indices, data-bus horizon (also
        # its last completion: the bus serialises) and busy time.
        queues = [[] for _ in range(num_channels)]
        bus_free = [0.0] * num_channels
        busy = [0.0] * num_channels
        # Every request is served exactly once, so per-channel counts
        # are the channel histogram of the stream.
        served = np.zeros(num_channels, dtype=np.int64)
        # One (start, channel) entry per channel with queued requests;
        # start is max(bus_free, head arrival).  It only moves when the
        # queue's head does, so the entry is pushed, replaced or popped
        # there and is never stale.  Ties go to the lowest channel.
        heap = []
        # Per channel-major bank: open row (None after power-up) and the
        # time it can begin its next access.
        open_row = [None] * (num_channels * banks)
        bank_ready = [0.0] * len(open_row)
        # Per request of the current block: channel, channel-major bank,
        # key (the row a hit must find open: the row itself, or -1 for
        # an ECC retry, which no open row equals), row and, once it is
        # admitted, arrival time.
        channel_of = bank_of = key_of = row_of = arrival = []

        latest = 0.0  # the latest completion so far
        hits = 0

        # A request is admitted while fewer than max_inflight are
        # outstanding; once the window is full, the next admission waits
        # for the earliest outstanding completion.  A request is only
        # issued when the window is full or the trace is exhausted, and
        # its completion is the next one the window retires, so
        # "outstanding" equals "queued" and every request is admitted
        # at the latest completion so far — which is never before any
        # channel's bus horizon.  So block index ``i < max_inflight`` is
        # admitted at once (the first requests, or the carried ones);
        # every later one after one issue; and a last, empty block
        # issues what is still queued.
        for block in chain(self._blocks(decoded, forced_miss), [None]):
            carried = [i for queue in queues for i in queue]
            first = 0
            for queue in queues:
                count = len(queue)
                queue[:] = range(first, first + count)
                first += count
            channel_of = [channel_of[i] for i in carried]
            bank_of = [bank_of[i] for i in carried]
            key_of = [key_of[i] for i in carried]
            row_of = [row_of[i] for i in carried]
            arrival = [arrival[i] for i in carried]
            if block is None:
                end, stop = first, 2 * first
            else:
                channel, bank, row, key = block
                served += np.bincount(channel, minlength=num_channels)
                channel_of += channel.tolist()
                bank_of += bank.tolist()
                row_of += row.tolist()
                # Without ECC retries the keys are the rows themselves.
                key_of += row_of[len(key_of):] if key is None else key.tolist()
                end = stop = len(channel_of)
            filled = min(end, max_inflight)
            for i in range(first, filled):
                ch = channel_of[i]
                queue = queues[ch]
                if not queue:
                    heappush(heap, (latest, ch))
                queue.append(i)
                arrival.append(latest)
            for i in range(filled, stop):
                # Issue from the channel with the earliest start.
                now, ch = heap[0]
                queue = queues[ch]
                # FR-FCFS: the earliest-arrived row hit in the lookahead
                # window, else the oldest request.  The head has always
                # arrived; arrivals are non-decreasing, so the scan
                # stops at the first request that has not.
                picked = queue[0]
                hit = open_row[bank_of[picked]] == key_of[picked]
                if not hit:
                    for index in queue[1:window]:
                        if arrival[index] > now:
                            break
                        if open_row[bank_of[index]] == key_of[index]:
                            picked, hit = index, True
                            break
                queue.remove(picked)

                # The bank pays the full hit/miss cost; the data bus only
                # carries the final burst, so activations in different
                # banks overlap but transfers serialise.
                bank = bank_of[picked]
                arrived = arrival[picked]
                ready = bank_ready[bank]
                bank_start = ready if ready > arrived else arrived
                if hit:
                    hits += 1
                    finish = bank_start + t_burst
                else:
                    finish = bank_start + t_miss
                bf = bus_free[ch]
                bus_done = bf + t_burst
                done = bus_done if bus_done > finish else finish
                open_row[bank] = row_of[picked]
                bank_ready[bank] = done
                # Channel active time = union of [bank_start, done].
                busy[ch] += done - (bf if bf > bank_start else bank_start)
                bus_free[ch] = done
                if queue:
                    head = arrival[queue[0]]
                    heapreplace(heap, (head if head > done else done, ch))
                else:
                    heappop(heap)
                if done > latest:
                    latest = done
                if i < end:
                    ch = channel_of[i]
                    queue = queues[ch]
                    if not queue:
                        heappush(heap, (latest, ch))
                    queue.append(i)
                    arrival.append(latest)

        n = int(served.sum())
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=latest,
            row_hits=hits,
            row_misses=n - hits,
            num_channels=num_channels,
            per_channel_requests=served,
            per_channel_busy_ns=np.array(busy, dtype=np.float64),
        )
