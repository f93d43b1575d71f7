"""The event tier's former per-object loop, kept as a test oracle.

:class:`~repro.hbm.device.HBMDevice` once ran one :class:`Channel`
object per channel (banks behind a shared data bus, FR-FCFS issue) and
one :class:`Bank` per bank (open row, ready time).  It now keeps all of
that state in flat lists.  The object loop lives on here verbatim,
outside the package: :class:`EventLoopBaseline` must give the same
:class:`~repro.hbm.stats.RunStats`, bit for bit, on any stream.

Within a channel the data bus serialises transfers, while row
activations overlap across banks (BLP); channels proceed fully in
parallel (CLP).  The scheduler is first-ready FCFS: among queued
requests it prefers one whose bank has the right row open, falling
back to the oldest request.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace
from repro.hbm.stats import RunStats


@dataclass
class Bank:
    """One bank: an open row and a ready time.

    ``open_row`` is ``None`` after power-up (the first access always
    pays the activation cost).  ``ready_ns`` is when the bank can begin
    its next access.  The surrounding channel owns the data bus; the
    bank only models row state and per-bank serialisation.
    """

    open_row: int | None = None
    ready_ns: float = 0.0
    hits: int = 0
    misses: int = 0

    def would_hit(self, row: int) -> bool:
        """True if the row is currently open in this bank."""
        return self.open_row == row

    def probe(self, row: int, t_burst: float, t_row_miss: float):
        """Cost of accessing ``row`` now; returns ``(cost_ns, was_hit)``."""
        if self.open_row == row:
            return t_burst, True
        return t_row_miss, False

    def commit(self, row: int, done_ns: float, was_hit: bool) -> None:
        """Record a completed access ending at ``done_ns``."""
        self.open_row = row
        self.ready_ns = done_ns
        if was_hit:
            self.hits += 1
        else:
            self.misses += 1


@dataclass
class ChannelRequest:
    """A request as seen by one channel."""

    index: int  # position in the original trace
    bank: int
    row: int
    arrival_ns: float
    # RAS: an ECC retry on degraded hardware — the row buffer cannot be
    # trusted, so the access pays the full miss cost unconditionally.
    forced_miss: bool = False


class Channel:
    """Per-channel queue + banks + data bus."""

    def __init__(
        self,
        banks_per_channel: int,
        t_burst_ns: float,
        t_row_miss_ns: float,
        frfcfs_window: int = 8,
    ):
        self.banks = [Bank() for _ in range(banks_per_channel)]
        self.t_burst_ns = t_burst_ns
        self.t_row_miss_ns = t_row_miss_ns
        self.frfcfs_window = max(1, frfcfs_window)
        self.queue: deque[ChannelRequest] = deque()
        self.bus_free_ns = 0.0
        self.busy_ns = 0.0
        self.served = 0
        self._last_done_ns = 0.0

    def enqueue(self, request: ChannelRequest) -> None:
        """Append a request to the channel queue."""
        self.queue.append(request)

    def has_work(self) -> bool:
        """True while requests are queued."""
        return bool(self.queue)

    def next_start_estimate(self) -> float:
        """Heuristic earliest start, used to order service across channels."""
        if not self.queue:
            return float("inf")
        return max(self.bus_free_ns, self.queue[0].arrival_ns)

    def _pick(self, now_ns: float) -> ChannelRequest:
        """FR-FCFS: earliest-arrived row hit in the lookahead window,
        else the oldest request.  Arrivals are non-decreasing, so the
        scan can stop at the first not-yet-arrived request."""
        limit = min(len(self.queue), self.frfcfs_window)
        for position in range(limit):
            candidate = self.queue[position]
            if candidate.arrival_ns > now_ns:
                break
            if not candidate.forced_miss and self.banks[
                candidate.bank
            ].would_hit(candidate.row):
                del self.queue[position]
                return candidate
        return self.queue.popleft()

    def service_next(self, now_ns: float):
        """Issue one request; returns ``(request, done_ns, was_hit)``.

        The bank pays the full hit/miss cost; the data bus only carries
        the final burst, so activations in different banks overlap but
        transfers serialise.
        """
        request = self._pick(now_ns)
        bank = self.banks[request.bank]
        # Activation can begin as soon as the request is visible and the
        # bank is free — it overlaps with other banks' bursts on the bus.
        bank_start = max(request.arrival_ns, bank.ready_ns)
        cost, hit = bank.probe(request.row, self.t_burst_ns, self.t_row_miss_ns)
        if request.forced_miss:
            cost, hit = self.t_row_miss_ns, False
        done = max(bank_start + cost, self.bus_free_ns + self.t_burst_ns)
        bank.commit(request.row, done, hit)
        self.bus_free_ns = done
        # Channel active time = union of [bank_start, done] intervals.
        self.busy_ns += done - max(bank_start, self._last_done_ns)
        self._last_done_ns = done
        self.served += 1
        return request, done, hit


class EventLoopBaseline:
    """The event tier as it ran before its flat-list rewrite.

    Kept verbatim — one :class:`Channel` object per channel, one
    :class:`ChannelRequest` per request and a full channel scan per
    issue.  It must produce the same :class:`~repro.hbm.stats.RunStats`
    as the live :class:`~repro.hbm.device.HBMDevice`;
    ``tests/hbm/test_event_differential.py`` checks that on random
    streams and on translated traffic.
    """

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        frfcfs_window: int = 8,
    ):
        if max_inflight < 1:
            raise SimulationError("max_inflight must be >= 1")
        self.config = config
        self.max_inflight = max_inflight
        self.frfcfs_window = frfcfs_window

    def _new_channels(self) -> list[Channel]:
        return [
            Channel(
                banks_per_channel=self.config.banks_per_channel,
                t_burst_ns=self.config.effective_t_burst_ns,
                t_row_miss_ns=self.config.effective_t_row_miss_ns,
                frfcfs_window=self.frfcfs_window,
            )
            for _ in range(self.config.num_channels)
        ]

    def simulate_decoded(
        self,
        decoded: DecodedTrace,
        forced_miss: np.ndarray | None = None,
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``forced_miss`` (optional boolean mask, one flag per access)
        marks ECC-retry requests that must pay the full miss cost.
        """
        if forced_miss is not None:
            forced_miss = np.asarray(forced_miss, dtype=bool)
        chunks = iter([(decoded, forced_miss)])
        channels = self._new_channels()
        num_channels = self.config.num_channels

        completions: list[float] = []
        makespan = 0.0
        admit_time = 0.0
        completed = 0
        issued = 0

        def serve_one() -> None:
            """Issue the request with the earliest feasible start."""
            nonlocal makespan
            best_start = float("inf")
            best_channel: Channel | None = None
            for channel in channels:
                if not channel.has_work():
                    continue
                start = channel.next_start_estimate()
                if start < best_start:
                    best_start = start
                    best_channel = channel
            if best_channel is None:  # pragma: no cover - guarded by callers
                raise SimulationError("no queued work to serve")
            _req, done, _hit = best_channel.service_next(best_start)
            heapq.heappush(completions, done)
            makespan = max(makespan, done)

        n = 0
        work_remaining = 0
        for chunk, chunk_forced in chunks:
            for index in range(len(chunk)):
                # Admission control: wait for a window slot.
                while issued - completed >= self.max_inflight:
                    if not completions:
                        serve_one()
                        work_remaining -= 1
                    else:
                        admit_time = max(admit_time, heapq.heappop(completions))
                        completed += 1
                channel = channels[chunk.channel[index]]
                channel.enqueue(
                    ChannelRequest(
                        index=n + index,
                        bank=int(chunk.bank[index]),
                        row=int(chunk.row[index]),
                        arrival_ns=admit_time,
                        forced_miss=bool(chunk_forced[index])
                        if chunk_forced is not None
                        else False,
                    )
                )
                issued += 1
                work_remaining += 1
            n += len(chunk)

        if n == 0:
            zeros = np.zeros(num_channels)
            return RunStats(0, 0, 0.0, 0, 0, num_channels, zeros, zeros)

        while work_remaining > 0:
            serve_one()
            work_remaining -= 1

        per_channel_requests = np.array(
            [channel.served for channel in channels], dtype=np.int64
        )
        per_channel_busy = np.array(
            [channel.busy_ns for channel in channels], dtype=np.float64
        )
        hits = sum(bank.hits for channel in channels for bank in channel.banks)
        misses = sum(bank.misses for channel in channels for bank in channel.banks)
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=makespan,
            row_hits=hits,
            row_misses=misses,
            num_channels=num_channels,
            per_channel_requests=per_channel_requests,
            per_channel_busy_ns=per_channel_busy,
        )
