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
from is a look at the heap's top.  One ``for`` loop admits the trace
and issues a request whenever the in-flight window is full.  The
per-object loop it replaced (one ``Channel`` and one ``Bank`` object
each) lives on in ``tests/hbm/event_oracle.py`` as the reference
``tests/hbm/test_event_differential.py`` compares against bit for bit.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
from itertools import chain, islice, repeat

import numpy as np

from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace, decode_trace, forced_miss_mask, request_count
from repro.hbm.stats import RunStats

__all__ = ["HBMDevice"]


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

    def _requests(self, decoded, forced_miss):
        """Yield, per chunk, an iterator of ``(channel, bank, key, row)``
        request tuples in trace order.

        ``bank`` is channel-major (``channel * banks + bank``), the index
        into the flat per-bank state.  ``key`` is the row a hit must
        find open: the row itself, or -1 (which no open row equals) for
        an ECC retry, so only a ``forced_miss`` run copies the rows.
        Iterating ``memoryview``s makes each Python int as the loop
        reaches it, rather than a list of a whole chunk's.
        """
        chunks = [decoded] if isinstance(decoded, DecodedTrace) else decoded
        banks = self.config.banks_per_channel
        for chunk in chunks:
            channel = np.asarray(chunk.channel, dtype=np.int64)
            key = chunk.row
            if forced_miss is not None:
                key = np.array(key, dtype=np.int64)
                key[forced_miss] = -1
            yield zip(
                memoryview(channel),
                memoryview(channel * banks + chunk.bank),
                memoryview(key),
                memoryview(chunk.row),
            )

    def simulate_decoded(
        self,
        decoded: DecodedTrace,
        forced_miss: np.ndarray | None = None,
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``decoded`` may be a single :class:`DecodedTrace` or an
        iterable of chunks — the event loop consumes requests one at a
        time, so chunked input is bit-identical to the whole trace and
        needs no re-decoding (only one chunk is live at a time).
        ``forced_miss`` (optional boolean mask, one flag per access,
        whole-trace form only) marks ECC-retry requests that must pay
        the full miss cost.
        """
        forced_miss = forced_miss_mask(decoded, forced_miss)
        num_channels = self.config.num_channels
        t_burst = self.config.effective_t_burst_ns
        t_miss = self.config.effective_t_row_miss_ns
        window = self.frfcfs_window
        max_inflight = self.max_inflight

        # Per channel: queued (bank, key, row, arrival_ns) tuples,
        # data-bus horizon (also its last completion: the bus
        # serialises), busy time and requests served.
        queues = [deque() for _ in range(num_channels)]
        bus_free = [0.0] * num_channels
        busy = [0.0] * num_channels
        served = [0] * num_channels
        # One (start, channel) entry per channel with queued requests;
        # start is max(bus_free, head arrival).  It only moves when the
        # queue's head does, so the entry is pushed, replaced or popped
        # there and is never stale.  Ties go to the lowest channel.
        heap = []
        # Per channel-major bank: open row (None after power-up) and the
        # time it can begin its next access.
        open_row = [None] * (num_channels * self.config.banks_per_channel)
        bank_ready = [0.0] * len(open_row)

        latest = 0.0  # the latest completion so far
        queued = 0  # admitted and not yet issued
        hits = 0

        # A request is admitted while fewer than max_inflight are
        # outstanding; once the window is full, the next admission waits
        # for the earliest outstanding completion.  A request is only
        # issued when the window is full or the trace is exhausted, and
        # its completion is the next one the window retires, so
        # "outstanding" equals "queued" and every request is admitted
        # at the latest completion so far — which is never before any
        # channel's bus horizon.
        requests = chain.from_iterable(self._requests(decoded, forced_miss))
        for request in chain(requests, repeat(None)):
            if queued == max_inflight or request is None:
                if not queued:
                    break
                # Issue from the channel with the earliest start.
                now, ch = heap[0]
                queue = queues[ch]
                # FR-FCFS: the earliest-arrived row hit in the lookahead
                # window, else the oldest request.  The head has always
                # arrived; arrivals are non-decreasing, so the scan
                # stops at the first request that has not.
                bank, key, row, arrival = queue[0]
                hit = open_row[bank] == key
                if hit or len(queue) == 1:
                    queue.popleft()
                else:
                    for index, (b, k, r, a) in enumerate(
                        islice(queue, 1, window), 1
                    ):
                        if a > now:
                            break
                        if open_row[b] == k:
                            bank, key, row, arrival = b, k, r, a
                            hit = True
                            del queue[index]
                            break
                    if not hit:
                        queue.popleft()

                # The bank pays the full hit/miss cost; the data bus only
                # carries the final burst, so activations in different
                # banks overlap but transfers serialise.
                ready = bank_ready[bank]
                bank_start = ready if ready > arrival else arrival
                if hit:
                    hits += 1
                    finish = bank_start + t_burst
                else:
                    finish = bank_start + t_miss
                bf = bus_free[ch]
                bus_done = bf + t_burst
                done = bus_done if bus_done > finish else finish
                open_row[bank] = row
                bank_ready[bank] = done
                # Channel active time = union of [bank_start, done].
                busy[ch] += done - (bf if bf > bank_start else bank_start)
                bus_free[ch] = done
                served[ch] += 1
                if queue:
                    head = queue[0][3]
                    heapreplace(heap, (head if head > done else done, ch))
                else:
                    heappop(heap)
                if done > latest:
                    latest = done
                queued -= 1
            if request is not None:
                ch, bank, key, row = request
                queue = queues[ch]
                if not queue:
                    heappush(heap, (latest, ch))
                queue.append((bank, key, row, latest))
                queued += 1

        n = sum(served)
        if n == 0:
            zeros = np.zeros(num_channels)
            return RunStats(0, 0, 0.0, 0, 0, num_channels, zeros, zeros)
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=latest,
            row_hits=hits,
            row_misses=n - hits,
            num_channels=num_channels,
            per_channel_requests=np.array(served, dtype=np.int64),
            per_channel_busy_ns=np.array(busy, dtype=np.float64),
        )
