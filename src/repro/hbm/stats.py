"""Simulation statistics: bandwidth, CLP utilisation, row-hit rates.

Also home of :class:`DeviceHealth`, the RAS-side error bookkeeping.  It
is deliberately a separate class from :class:`RunStats` — RunStats is
frozen, cached and fingerprinted by the experiment engine, so growing
it would invalidate every on-disk cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ledger import (
    APPEND,
    LATEST,
    LEFT,
    MAX,
    SUM,
    Ledger,
    key,
    summed_array,
)

__all__ = ["BackendHealth", "DeviceHealth", "RemapTraffic", "RunStats"]


@dataclass(frozen=True, eq=False)
class RunStats(Ledger):
    """Outcome of running one HA trace through a memory model.

    ``clp_utilization`` is the share of total channel-time that was
    actually busy: 1.0 means every channel worked for the whole run
    (perfect channel-level parallelism), 1/num_channels means one
    channel did all the work while the rest idled — the stride-32 worst
    case of Fig. 3.  Stats of independent runs (e.g. a tenant's jobs)
    merge under the ledger laws (:mod:`repro.ledger`).
    """

    requests: int = field(metadata=SUM)
    bytes_moved: int = field(metadata=SUM)
    makespan_ns: float = field(metadata=MAX)
    row_hits: int = field(metadata=SUM)
    row_misses: int = field(metadata=SUM)
    num_channels: int = field(metadata=key("channel counts"))
    per_channel_requests: np.ndarray = field(
        repr=False, metadata=summed_array(np.int64, "num_channels")
    )
    per_channel_busy_ns: np.ndarray = field(
        repr=False, metadata=summed_array(np.float64, "num_channels")
    )

    @property
    def throughput_gbps(self) -> float:
        """GB/s (bytes per nanosecond)."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.bytes_moved / self.makespan_ns

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hits divided by total accesses."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def channels_touched(self) -> int:
        """Channels that served at least one request."""
        return int(np.count_nonzero(self.per_channel_requests))

    @property
    def clp_utilization(self) -> float:
        """Busy channel-time over total channel-time."""
        if self.makespan_ns <= 0:
            return 0.0
        busy = float(self.per_channel_busy_ns.sum())
        return busy / (self.makespan_ns * self.num_channels)

    @property
    def request_balance(self) -> float:
        """1.0 when requests split evenly across channels (entropy-based)."""
        counts = self.per_channel_requests.astype(np.float64)
        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts[counts > 0] / total
        entropy = float(-(p * np.log2(p)).sum())
        return entropy / np.log2(self.num_channels) if self.num_channels > 1 else 1.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.requests} reqs, {self.throughput_gbps:.1f} GB/s, "
            f"hit-rate {self.row_hit_rate:.2f}, "
            f"CLP {self.clp_utilization:.2f} "
            f"({self.channels_touched}/{self.num_channels} channels)"
        )


@dataclass(eq=False)
class BackendHealth(Ledger):
    """Structured record of every degradation a guarded run suffered.

    Like :class:`DeviceHealth` and :class:`RemapTraffic`, deliberately
    separate from the frozen, cache-fingerprinted :class:`RunStats`:
    health describes *how* a result was obtained (demotions), never
    *what* the result is.

    The divergence guard appends one entry to ``degradations`` per
    recovery action, each a dict with at least ``event``
    (``"tier-demoted"``) and ``reason``; ``demoted_to`` names the tier
    a demotion pinned the run to, and ``guard`` holds the guard's
    comparison report.  Health merges over *sequential* runs of one
    backend, so it is the one ledger whose merge is not commutative.
    """

    derived = ("ok",)

    backend: str = field(default="vector", metadata=LEFT)
    demoted_to: str | None = field(default=None, metadata=LATEST)
    degradations: list = field(default_factory=list, metadata=APPEND)
    guard: dict | None = field(default=None, metadata=LATEST)

    def record(self, event: str, reason: str, **detail) -> None:
        """Append one structured degradation event."""
        entry = {"event": event, "reason": reason}
        entry.update(detail)
        self.degradations.append(entry)
        if event == "tier-demoted":
            self.demoted_to = str(detail.get("to", "event"))

    @property
    def ok(self) -> bool:
        """True when the run completed with no degradation at all."""
        if self.degradations:
            return False
        return self.guard is None or not self.guard.get("diverged", False)


@dataclass(eq=False)
class RemapTraffic(Ledger):
    """Accounting for live-remap traffic (the online control plane).

    Like :class:`DeviceHealth`, deliberately separate from the frozen,
    cache-fingerprinted :class:`RunStats`: these counters grow with the
    adaptive controller's actions, not with a single simulated trace.
    ``migration_ns`` is the simulated device time the copies occupied;
    ``reprogram_ns`` the modeled CMT-write + AMU-crossbar reprogram
    cost.  Both are the overhead an adaptive campaign charges against
    its service-time wins.
    """

    derived = ("overhead_ns",)

    remaps: int = field(default=0, metadata=SUM)
    failed_remaps: int = field(default=0, metadata=SUM)
    rollback_migrations: int = field(default=0, metadata=SUM)
    chunks_migrated: int = field(default=0, metadata=SUM)
    lines_copied: int = field(default=0, metadata=SUM)
    bytes_moved: int = field(default=0, metadata=SUM)
    migration_ns: float = field(default=0.0, metadata=SUM)
    cmt_writes: int = field(default=0, metadata=SUM)
    amu_reprograms: int = field(default=0, metadata=SUM)
    reprogram_ns: float = field(default=0.0, metadata=SUM)

    def record_migration(self, report, line_bytes: int = 64) -> None:
        """Fold one :class:`~repro.mem.migration.MigrationReport` in."""
        self.chunks_migrated += 1
        self.lines_copied += int(report.lines_copied)
        # Every line is read through the old mapping and written through
        # the new one: two line transfers per copied line.
        self.bytes_moved += 2 * int(report.lines_copied) * int(line_bytes)
        self.migration_ns += float(report.cost_ns)

    @property
    def overhead_ns(self) -> float:
        """Total simulated time the remaps cost."""
        return self.migration_ns + self.reprogram_ns


class DeviceHealth:
    """Per-channel/bank error topology, classified into fault suspects.

    ECC flags arrive per access as a boolean mask aligned with a decoded
    trace; :meth:`record` folds them into per-``(channel, bank)`` error
    counts and error-row sets.  :meth:`suspects` then reads the topology
    back out: errors confined to one row of one bank look like a stuck
    row, errors across many rows of one bank look like a dead bank, and
    errors across most banks of a channel look like a lost channel.
    """

    def __init__(
        self,
        num_channels: int,
        banks_per_channel: int,
        row_threshold: int = 2,
        bank_row_threshold: int = 4,
        channel_bank_fraction: float = 0.5,
    ):
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self.row_threshold = row_threshold
        self.bank_row_threshold = bank_row_threshold
        self.channel_bank_fraction = channel_bank_fraction
        self.error_counts = np.zeros(
            (num_channels, banks_per_channel), dtype=np.int64
        )
        self.error_rows: dict[tuple[int, int], set[int]] = {}
        self.accesses = 0

    def record(self, decoded, error_mask) -> int:
        """Fold one access batch's ECC flags into the topology.

        ``decoded`` is a :class:`~repro.hbm.decode.DecodedTrace` (or any
        object with ``channel``/``bank``/``row`` arrays); ``error_mask``
        is a boolean array of the same length.  Returns the number of
        flagged accesses.
        """
        error_mask = np.asarray(error_mask, dtype=bool)
        self.accesses += int(error_mask.size)
        if not error_mask.any():
            return 0
        channels = np.asarray(decoded.channel)[error_mask]
        banks = np.asarray(decoded.bank)[error_mask]
        rows = np.asarray(decoded.row)[error_mask]
        np.add.at(self.error_counts, (channels, banks), 1)
        for c, b, r in zip(channels.tolist(), banks.tolist(), rows.tolist()):
            self.error_rows.setdefault((int(c), int(b)), set()).add(int(r))
        return int(error_mask.sum())

    @property
    def total_errors(self) -> int:
        """All ECC-flagged accesses recorded so far."""
        return int(self.error_counts.sum())

    def suspects(self) -> list[dict]:
        """Classify the recorded topology into fault suspects.

        Returns a list of ``{"kind": ..., "channel": ...}`` dicts,
        most-severe first (channel, then bank, then row).  A channel
        suspect subsumes its banks' evidence; a bank suspect subsumes
        its rows'.
        """
        found: list[dict] = []
        channel_bad = set()
        for c in range(self.num_channels):
            bad_banks = int(np.count_nonzero(self.error_counts[c]))
            if bad_banks >= max(
                2, int(self.banks_per_channel * self.channel_bank_fraction)
            ):
                found.append({"kind": "channel", "channel": c})
                channel_bad.add(c)
        bank_bad = set()
        for (c, b), rows in sorted(self.error_rows.items()):
            if c in channel_bad:
                continue
            if len(rows) >= self.bank_row_threshold:
                found.append({"kind": "bank", "channel": c, "bank": b})
                bank_bad.add((c, b))
        for (c, b), rows in sorted(self.error_rows.items()):
            if c in channel_bad or (c, b) in bank_bad:
                continue
            for row in sorted(rows):
                if self.error_counts[c, b] >= self.row_threshold:
                    found.append(
                        {"kind": "row", "channel": c, "bank": b, "row": row}
                    )
        return found

    def reset(self) -> None:
        """Clear all recorded evidence (after a repair round)."""
        self.error_counts[:] = 0
        self.error_rows.clear()
        self.accesses = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.total_errors} ECC errors over {self.accesses} accesses, "
            f"{len(self.error_rows)} (channel,bank) sites affected"
        )
