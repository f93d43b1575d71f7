"""The dict-based wave bookkeeping of the tiered backend, kept as an oracle.

The tiered backend once kept each page's decayed heat and last touch in
dicts: ``SwapPolicy.observe`` folded every wave into a
:class:`VariableActivity` keyed by page id (which decays every key in a
Python loop), the backend admitted the wave's
pages one ``TierPlacement.admit`` call at a time and rebuilt the slow
set for ``np.isin``, and both rankings sorted Python tuples with a dict
lookup per page.  The package now keeps that state in page-indexed
arrays.  The former methods are kept here verbatim, outside the
package, as the oracle the array path must match bit for bit
(``tests/tier/test_tier_differential.py``).

The oracle stands alone: its policies and backend subclass nothing in
:mod:`repro.tier`, so a change to the package cannot change the oracle
under it.  It shares only what the array path leaves as it was:
:class:`~repro.tier.placement.TierPlacement`, the streaming BFRV, the
configs, the stats ledgers and the delegate backends.
:class:`VariableActivity` is the decayed per-tag counter the package
once exported from ``repro.online.stream``, kept here verbatim (without
its unused ``majors``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigError, ProfilingError
from repro.hbm.backend import create_backend
from repro.hbm.decode import (
    DecodedTrace,
    decode_trace,
    forced_miss_mask,
)
from repro.hbm.stats import RunStats
from repro.online.stream import StreamingBFRV
from repro.tier.config import TierConfig
from repro.tier.placement import TierPlacement
from repro.tier.stats import TierTraffic


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


class SwapPolicy:
    """Base class: per-wave observation + promotion planning."""

    name = "policy"

    def __init__(self, config: TierConfig, line_bits: int = 6):
        self.config = config
        self.line_bits = line_bits
        self.activity = VariableActivity(
            page_bits=config.page_bits, decay=0.5
        )
        self.bfrv = StreamingBFRV(
            num_bits=max(config.page_bits, line_bits + 4), decay=0.5
        )
        self.last_touch: dict[int, int] = {}
        self.wave = 0
        self.wave_pages: list[int] = []
        self.streaming = False

    def observe(self, ha: np.ndarray, pages: np.ndarray) -> None:
        """Fold one wave's accesses into the online signals."""
        self.wave += 1
        rates = self.bfrv.update(ha)
        self.activity.update(ha, pages.astype(np.int64))
        # First-touch order, deduplicated — deterministic across runs.
        _, first = np.unique(pages, return_index=True)
        self.wave_pages = pages[np.sort(first)].tolist()
        self.last_touch.update(dict.fromkeys(self.wave_pages, self.wave))
        self.streaming = self._looks_streaming(rates)

    def _looks_streaming(self, rates: np.ndarray) -> bool:
        """A sequential scan flips the line-stride bit nearly every pair."""
        stride_bit = self.line_bits
        if rates.size <= stride_bit + 3:
            return False
        high = rates[stride_bit + 2 :]
        return float(rates[stride_bit]) > 0.8 and float(high.mean()) < 0.3

    def refs(self, page: int) -> float:
        """Decayed reference count of a page (0.0 when never seen)."""
        return self.activity.references.get(int(page), 0.0)

    def victim_order(self, placement: TierPlacement) -> list[int]:
        """Fast pages coldest-first (refs, then recency, then id)."""
        refs = self.activity.references.get
        touch = self.last_touch.get
        return sorted(
            placement.fast, key=lambda p: (refs(p, 0.0), touch(p, 0), p)
        )


class FastSwap(SwapPolicy):
    """Promote everything touched last wave (recency, no hysteresis)."""

    name = "fast"

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        if placement.fast_capacity is None:
            return []
        promote = []
        for page in self.wave_pages:
            if len(promote) >= budget:
                break
            if placement.tier_of(page) == "slow" and not placement.is_pinned(
                page
            ):
                promote.append(page)
        return promote


class SlowSwap(SwapPolicy):
    """Never migrate: first-touch placement is final."""

    name = "slow"

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        return []


class SmartSwap(SwapPolicy):
    """Decayed-heat ranking with scan-aware hysteresis."""

    name = "smart"

    def __init__(
        self,
        config: TierConfig,
        line_bits: int = 6,
        hysteresis: float = 1.5,
        reuse_horizon: float = 8.0,
    ):
        super().__init__(config, line_bits)
        if hysteresis < 1.0:
            raise ConfigError("hysteresis must be >= 1.0")
        if reuse_horizon <= 0.0:
            raise ConfigError("reuse_horizon must be positive")
        self.hysteresis = hysteresis
        self.reuse_horizon = reuse_horizon
        lines_per_page = 1 << max(config.page_bits - line_bits, 0)
        self.min_refs = 2.0 * lines_per_page / reuse_horizon

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        if placement.fast_capacity is None:
            return []
        refs = self.activity.references.get
        pinned = placement.pinned
        # Hottest first: (-refs, page), each page's refs looked up once.
        candidates = sorted(
            (-heat, p)
            for p in placement.slow
            if p not in pinned and (heat := refs(p, 0.0)) > 0.0
        )
        victims = None
        factor = self.hysteresis * (2.0 if self.streaming else 1.0)
        promote: list[int] = []
        free = placement.fast_free or 0
        victim_index = 0
        for neg_heat, page in candidates:
            if len(promote) >= budget:
                break
            heat = -neg_heat
            if free > 0:
                # No demotion needed: half the swap cost, half the bar.
                if heat < self.min_refs / 2.0:
                    break
                promote.append(page)
                free -= 1
                continue
            if victims is None:
                victims = self.victim_order(placement)
            if victim_index >= len(victims):
                break
            cold = victims[victim_index]
            bar = max(factor * refs(cold, 0.0), self.min_refs)
            if heat > bar:
                promote.append(page)
                victim_index += 1
            else:
                # Candidates are ranked hottest-first: nothing that
                # follows can clear the bar either.
                break
        return promote


POLICIES = {"fast": FastSwap, "slow": SlowSwap, "smart": SmartSwap}


class _TranslationCache:
    """A small LRU of pages whose placement differs from the default."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: dict[int, None] = {}

    def probe(self, page: int) -> bool:
        """True on hit; misses insert the page (evicting the LRU)."""
        if page in self._entries:
            self._entries.pop(page)
            self._entries[page] = None
            return True
        if self.capacity > 0:
            if len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                self._entries.pop(oldest)
            self._entries[page] = None
        return False


class TieredBackend:
    """The former dict-based wave loop of ``TieredBackend``."""

    def __init__(
        self,
        config,
        max_inflight: int = 64,
        tier: TierConfig | None = None,
        delegate: str = "fast",
        policy: str = "smart",
        fast_pages: int | None = None,
        wave_accesses: int | None = None,
        swap_budget: int | None = None,
        trans_cache_pages: int | None = None,
        slow=None,
        on_wave=None,
        **delegate_options,
    ):
        tier = tier or TierConfig()
        overrides = {
            "fast_pages": fast_pages,
            "wave_accesses": wave_accesses,
            "swap_budget": swap_budget,
            "trans_cache_pages": trans_cache_pages,
            "slow": slow,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides:
            tier = dataclasses.replace(tier, **overrides)
        self.config = config
        self.tier = tier
        self.delegate = create_backend(
            delegate, config, max_inflight=max_inflight, **delegate_options
        )
        self.placement = TierPlacement(tier.fast_pages)
        self.policy = POLICIES[policy](tier, line_bits=config.line_bits)
        self.on_wave = on_wave
        self.last_traffic = TierTraffic()
        self._trans = _TranslationCache(tier.trans_cache_pages)
        self._migrated: set[int] = set()
        layout = config.layout()
        self._shifts = {
            name: layout[name].shift
            for name in ("channel", "column", "bank", "row")
        }

    def retire_page(self, page: int) -> None:
        """Pin a RAS-retired page to the slow tier."""
        if self.placement.pin_slow(int(page)):
            self.last_traffic.retired_pins += 1
            self._migrated.add(int(page))

    def _pages_of(self, decoded: DecodedTrace) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct HAs + page ids from decoded device coordinates."""
        s = self._shifts
        ha = (
            (decoded.channel.astype(np.uint64) << np.uint64(s["channel"]))
            | (decoded.column.astype(np.uint64) << np.uint64(s["column"]))
            | (decoded.bank.astype(np.uint64) << np.uint64(s["bank"]))
            | (decoded.row.astype(np.uint64) << np.uint64(s["row"]))
        )
        pages = (ha >> np.uint64(self.tier.page_bits)).astype(np.int64)
        return ha, pages

    def _swap_cost_ns(self) -> float:
        """Cost of moving one page between tiers (read + write)."""
        lines = self.tier.page_bytes // self.config.line_bytes
        return lines * (
            self.tier.slow.t_access_ns / self.tier.slow.channels
            + self.config.effective_t_burst_ns
        )

    def _apply_swaps(self, traffic: TierTraffic) -> None:
        """Plan with the policy, migrate through the placement map."""
        promote = self.policy.plan(self.placement, self.tier.swap_budget)
        moved = set(promote)
        cost = self._swap_cost_ns()
        victims = None
        for page in promote:
            free = self.placement.fast_free
            if free is not None and free <= 0:
                if victims is None:
                    victims = iter(self.policy.victim_order(self.placement))
                victim = next((p for p in victims if p not in moved), None)
                if victim is None:
                    break
                self.placement.demote(victim)
                self._migrated.add(victim)
                moved.add(victim)
                traffic.demotions += 1
                traffic.swap_bytes += 2 * self.tier.page_bytes
                traffic.swap_ns += cost
            self.placement.promote(page)
            self._migrated.add(page)
            traffic.promotions += 1
            traffic.swap_bytes += 2 * self.tier.page_bytes
            traffic.swap_ns += cost

    def _charge_translation(
        self, wave_pages: list[int], traffic: TierTraffic
    ) -> None:
        """Probe the translation cache for every non-default page."""
        for page in wave_pages:
            if page not in self.placement.slow and page not in self._migrated:
                continue
            traffic.trans_lookups += 1
            if self._trans.probe(page):
                traffic.trans_hits += 1
            else:
                traffic.trans_misses += 1
                traffic.trans_ns += self.tier.trans_miss_ns

    def simulate(self, ha) -> RunStats:
        """Run a hardware-address trace (decodes, then simulates)."""
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(self, decoded, forced_miss=None) -> RunStats:
        """Run a decoded stream through the fast/slow split."""
        traffic = TierTraffic()
        self.last_traffic = traffic
        if self.tier.fast_pages is None:
            # Slow tier disabled: delegate the stream untouched so the
            # result is bit-identical to the delegate backend's.
            stats = self.delegate.simulate_decoded(
                decoded, forced_miss=forced_miss
            )
            traffic.fast_accesses = stats.requests
            return stats
        forced_miss = forced_miss_mask(decoded, forced_miss)
        full = decoded
        n = len(full)
        ha, pages = self._pages_of(full)
        fast_mask = np.ones(n, dtype=bool)
        wave = self.tier.wave_accesses
        for index, start in enumerate(range(0, n, wave)):
            sl = slice(start, min(start + wave, n))
            wave_pages = pages[sl]
            # observe() never reads the placement, so it can go first
            # and its first-touch order drive admission.
            self.policy.observe(ha[sl], wave_pages)
            touched = self.policy.wave_pages
            for page in touched:
                self.placement.admit(page)
            if self.placement.slow:
                slow_now = np.fromiter(
                    self.placement.slow, dtype=np.int64,
                    count=len(self.placement.slow),
                )
                fast_mask[sl] = ~np.isin(wave_pages, slow_now)
            self._charge_translation(touched, traffic)
            self._apply_swaps(traffic)
            traffic.swap_waves += 1
            if self.on_wave is not None:
                self.on_wave(index, self.placement, traffic)
        fast_sub = DecodedTrace(
            channel=full.channel[fast_mask],
            bank=full.bank[fast_mask],
            row=full.row[fast_mask],
            column=full.column[fast_mask],
            global_bank=full.global_bank[fast_mask],
        )
        fast_stats = self.delegate.simulate_decoded(
            fast_sub,
            forced_miss=(
                forced_miss[fast_mask] if forced_miss is not None else None
            ),
        )
        slow_count = int(n - len(fast_sub))
        slow_busy = self.tier.slow.service_ns(slow_count)
        traffic.fast_accesses = int(len(fast_sub))
        traffic.slow_accesses = slow_count
        traffic.slow_busy_ns = slow_busy
        per_channel = fast_stats.per_channel_requests + np.bincount(
            full.channel[~fast_mask], minlength=self.config.num_channels
        ).astype(np.int64)
        makespan = (
            max(fast_stats.makespan_ns, slow_busy)
            + traffic.swap_ns
            + traffic.trans_ns
        )
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=makespan,
            row_hits=fast_stats.row_hits,
            # The slow tier has no row buffer: every access is charged
            # as a miss, keeping hits + misses == requests exactly.
            row_misses=fast_stats.row_misses + slow_count,
            num_channels=self.config.num_channels,
            per_channel_requests=per_channel,
            per_channel_busy_ns=fast_stats.per_channel_busy_ns.copy(),
        )
