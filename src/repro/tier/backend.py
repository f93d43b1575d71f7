"""The ``"tiered"`` memory backend: fast HBM tier + slow tier.

A :class:`TieredBackend` sits behind the same
:class:`~repro.hbm.backend.MemoryBackend` protocol as the fast/vector/
event tiers, but splits the decoded request stream page-by-page between
a fast HBM device (timing delegated to an existing backend) and a
latency/bandwidth-modeled slow tier.  Placement is re-planned every
*wave* of accesses by a pluggable :mod:`~repro.tier.policies` swap
policy driven by the online BFRV/activity signals, and accesses to
non-resident pages pay a small translation cache.

One exactness property anchors the design: with ``fast_pages=None``
(unbounded fast capacity, the default) the backend delegates the
*entire* stream untouched, so its :class:`~repro.hbm.stats.RunStats`
are bit-identical to the delegate backend's — tiering is strictly
additive.

Per-run accounting lands in :attr:`TieredBackend.last_traffic`
(a :class:`~repro.tier.stats.TierTraffic`), which rides on
:class:`~repro.system.machine.MachineResult` outside the fingerprint.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError
from repro.hbm.backend import create_backend
from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace, decode_trace, forced_miss_mask
from repro.hbm.stats import RunStats
from repro.tier.config import SlowTierConfig, TierConfig
from repro.tier.placement import TierPlacement, page_array
from repro.tier.policies import SwapPolicy, create_policy
from repro.tier.stats import TierTraffic

__all__ = ["TieredBackend"]


class _TranslationCache:
    """A small LRU of pages whose placement differs from the default.

    Resident-by-default pages translate for free; only remapped or
    slow-tier pages need an entry, so an all-fast run never touches the
    cache (cost exactly zero — the parity property depends on it).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[int, None] = OrderedDict()

    def probe_all(self, pages: list[int]) -> int:
        """Probe each page in order; returns the hits.

        A hit moves the page to the most-recent end; a miss inserts it,
        evicting the least recent entry when full.  The order matters,
        so this stays one pass over the pages.
        """
        entries, capacity = self._entries, self.capacity
        refresh, evict = entries.move_to_end, entries.popitem
        hits = 0
        for page in pages:
            if page in entries:
                refresh(page)
                hits += 1
            elif capacity > 0:
                if len(entries) >= capacity:
                    evict(last=False)
                entries[page] = None
        return hits


class TieredBackend:
    """Fast tier + slow tier behind the MemoryBackend protocol.

    ``delegate`` names the backend that times the fast tier (``"fast"``
    or ``"vector"``); ``policy`` names the swap policy; the remaining
    keywords override individual :class:`~repro.tier.config.TierConfig`
    fields (``fast_pages=0`` is the all-slow baseline).

    State persists across calls: the placement, the policy's decayed
    signals, the translation cache and the set of migrated pages carry
    over from one ``simulate`` call to the next (only
    :attr:`last_traffic` is per call), which is what lets
    :meth:`retire_page` before a run take effect.  A second run of the
    same trace therefore starts from the first run's placement; build a
    fresh backend for an independent run.
    """

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        tier: TierConfig | None = None,
        delegate: str = "fast",
        policy: str = "smart",
        fast_pages: int | None = None,
        wave_accesses: int | None = None,
        swap_budget: int | None = None,
        trans_cache_pages: int | None = None,
        slow: SlowTierConfig | None = None,
        on_wave=None,
        **delegate_options,
    ):
        if delegate == "tiered":
            raise ConfigError("the tiered backend cannot delegate to itself")
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
        if tier.page_bits < config.line_bits:
            raise ConfigError("pages must be at least one cache line")
        self.config = config
        self.tier = tier
        self.delegate_name = delegate
        self.delegate = create_backend(
            delegate, config, max_inflight=max_inflight, **delegate_options
        )
        self.placement = TierPlacement(tier.fast_pages)
        self.policy: SwapPolicy = create_policy(
            policy, tier, line_bits=config.line_bits
        )
        self.on_wave = on_wave
        self.last_traffic = TierTraffic()
        self._trans = _TranslationCache(tier.trans_cache_pages)
        self._migrated: set[int] = set()
        layout = config.layout()
        self._shifts = {
            name: layout[name].shift
            for name in ("channel", "column", "bank", "row")
        }

    # -- RAS fallback --------------------------------------------------------
    def retire_page(self, page: int) -> None:
        """Pin a RAS-retired page to the slow tier.

        The fast tier keeps its full capacity — retirement costs slow
        capacity, never fast — and the page can never be promoted.
        """
        if self.placement.pin_slow(int(page)):
            self.last_traffic.retired_pins += 1
            self._migrated.add(int(page))

    # -- helpers -------------------------------------------------------------
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
        """Plan with the policy, migrate through the placement map.

        The victim ranking is taken once, at the first forced
        demotion, and walked past pages already ``moved``.  That equals
        re-ranking the fast set for every demotion: nothing in the loop
        changes a page's refs or last touch, and every page that joins
        the fast set here is a promotion, already in ``moved``.
        """
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
        self, touched: np.ndarray, slow: np.ndarray, traffic: TierTraffic
    ) -> None:
        """Probe the translation cache for every non-default page."""
        remapped = np.isin(touched, slow) | np.isin(
            touched, page_array(self._migrated)
        )
        lookups = touched[remapped].tolist()
        hits = self._trans.probe_all(lookups)
        misses = len(lookups) - hits
        traffic.trans_lookups += len(lookups)
        traffic.trans_hits += hits
        traffic.trans_misses += misses
        for _ in range(misses):
            # One addition per miss: the rounding of a per-page charge.
            traffic.trans_ns += self.tier.trans_miss_ns

    # -- MemoryBackend protocol ----------------------------------------------
    def simulate(self, ha) -> RunStats:
        """Run a hardware-address trace (decodes, then simulates)."""
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(
        self, decoded: DecodedTrace, forced_miss=None
    ) -> RunStats:
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
        n = len(decoded)
        ha, pages = self._pages_of(decoded)
        fast_mask = np.ones(n, dtype=bool)
        wave = self.tier.wave_accesses
        for index, start in enumerate(range(0, n, wave)):
            sl = slice(start, min(start + wave, n))
            wave_pages = pages[sl]
            # observe() never reads the placement, so it can go first
            # and its first-touch order drive admission.  A page the
            # policy saw in an earlier wave was admitted in that wave.
            new = self.policy.observe(ha[sl], wave_pages)
            self.placement.admit_all(new.tolist())
            touched = self.policy.wave_pages
            slow = page_array(self.placement.slow)
            if slow.size:
                fast_mask[sl] = ~np.isin(wave_pages, slow)
            self._charge_translation(touched, slow, traffic)
            self._apply_swaps(traffic)
            traffic.swap_waves += 1
            if self.on_wave is not None:
                self.on_wave(index, self.placement, traffic)
        fast_sub = DecodedTrace(
            channel=decoded.channel[fast_mask],
            bank=decoded.bank[fast_mask],
            row=decoded.row[fast_mask],
            column=decoded.column[fast_mask],
            global_bank=decoded.global_bank[fast_mask],
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
            decoded.channel[~fast_mask], minlength=self.config.num_channels
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

    def __repr__(self) -> str:
        cap = (
            "unbounded"
            if self.tier.fast_pages is None
            else f"{self.tier.fast_pages} pages"
        )
        return (
            f"TieredBackend({self.delegate_name}+{self.tier.slow.name}, "
            f"fast={cap}, policy={self.policy.name!r})"
        )
