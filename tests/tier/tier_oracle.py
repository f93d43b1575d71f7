"""The per-page wave bookkeeping of the tiered backend, kept as an oracle.

The tiered backend once did its per-wave bookkeeping page by page:
``VariableActivity.update`` ran one ``np.unique`` and one boolean mask
over the whole window for every distinct tag, both the backend and
``SwapPolicy.observe`` computed the wave's first-touch order, and every
forced demotion re-sorted the whole fast set to find its victim.  The
package now does each of these once per wave.  The old methods are
kept here verbatim, outside the package, as the oracle the whole-wave
path must match bit for bit (``tests/tier/test_tier_differential.py``).

Each class subclasses its package counterpart and overrides the former
wave-loop methods; the rest (placement, construction, the translation
cache, ``refs``, the scan detector) is shared.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProfilingError
from repro.hbm.decode import DecodedTrace, concat_decoded, forced_miss_mask
from repro.hbm.stats import RunStats
from repro.online import stream
from repro.tier import backend, policies
from repro.tier.placement import TierPlacement
from repro.tier.stats import TierTraffic


class VariableActivity(stream.VariableActivity):
    """One ``np.unique`` and one mask per distinct tag."""

    def update(self, addresses: np.ndarray, variable: np.ndarray) -> None:
        """Fold one window's tagged accesses in."""
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
        for var in np.unique(variable):
            mask = variable == var
            var = int(var)
            self.references[var] = self.references.get(var, 0.0) + float(
                mask.sum()
            )
            self.footprint_pages[var] = self.footprint_pages.get(
                var, 0.0
            ) + float(np.unique(pages[mask]).size)


class _PolicyMixin:
    """The former observation and victim ranking of ``SwapPolicy``."""

    def __init__(self, config, line_bits: int = 6, **kwargs):
        super().__init__(config, line_bits, **kwargs)
        self.activity = VariableActivity(
            page_bits=config.page_bits, decay=0.5
        )

    def observe(self, ha: np.ndarray, pages: np.ndarray) -> None:
        """Fold one wave's accesses into the online signals."""
        self.wave += 1
        rates = self.bfrv.update(ha)
        self.activity.update(ha, pages.astype(np.int64))
        # First-touch order, deduplicated — deterministic across runs.
        _, first = np.unique(pages, return_index=True)
        self.wave_pages = [
            int(p) for p in pages[np.sort(first)]
        ]
        for page in self.wave_pages:
            self.last_touch[page] = self.wave
        self.streaming = self._looks_streaming(rates)

    def victim_order(self, placement: TierPlacement) -> list[int]:
        """Fast pages coldest-first (refs, then recency, then id)."""
        return sorted(
            placement.fast,
            key=lambda p: (self.refs(p), self.last_touch.get(p, 0), p),
        )

    def pick_victim(
        self, placement: TierPlacement, exclude: set[int]
    ) -> int | None:
        """The coldest demotable fast page, or None."""
        for page in self.victim_order(placement):
            if page not in exclude:
                return page
        return None


class FastSwap(_PolicyMixin, policies.FastSwap):
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


class SlowSwap(_PolicyMixin, policies.SlowSwap):
    pass


class SmartSwap(_PolicyMixin, policies.SmartSwap):
    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        if placement.fast_capacity is None:
            return []
        candidates = sorted(
            (
                p
                for p in placement.slow
                if not placement.is_pinned(p) and self.refs(p) > 0.0
            ),
            key=lambda p: (-self.refs(p), p),
        )
        victims = self.victim_order(placement)
        factor = self.hysteresis * (2.0 if self.streaming else 1.0)
        promote: list[int] = []
        free = placement.fast_free or 0
        victim_index = 0
        for page in candidates:
            if len(promote) >= budget:
                break
            if free > 0:
                # No demotion needed: half the swap cost, half the bar.
                if self.refs(page) < self.min_refs / 2.0:
                    break
                promote.append(page)
                free -= 1
                continue
            if victim_index >= len(victims):
                break
            cold = victims[victim_index]
            bar = max(factor * self.refs(cold), self.min_refs)
            if self.refs(page) > bar:
                promote.append(page)
                victim_index += 1
            else:
                # Candidates are ranked hottest-first: nothing that
                # follows can clear the bar either.
                break
        return promote


POLICIES = {"fast": FastSwap, "slow": SlowSwap, "smart": SmartSwap}


class TieredBackend(backend.TieredBackend):
    """The former page-at-a-time wave loop of ``TieredBackend``."""

    def __init__(self, config, *args, policy: str = "smart", **kwargs):
        super().__init__(config, *args, policy=policy, **kwargs)
        self.policy = POLICIES[policy](self.tier, line_bits=config.line_bits)

    def _apply_swaps(self, traffic: TierTraffic) -> None:
        """Plan with the policy, migrate through the placement map."""
        promote = self.policy.plan(self.placement, self.tier.swap_budget)
        moved = set(promote)
        cost = self._swap_cost_ns()
        for page in promote:
            free = self.placement.fast_free
            if free is not None and free <= 0:
                victim = self.policy.pick_victim(self.placement, moved)
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
        full = (
            decoded
            if isinstance(decoded, DecodedTrace)
            else concat_decoded(list(decoded))
        )
        n = len(full)
        ha, pages = self._pages_of(full)
        fast_mask = np.ones(n, dtype=bool)
        wave = self.tier.wave_accesses
        for index, start in enumerate(range(0, n, wave)):
            sl = slice(start, min(start + wave, n))
            wave_pages = pages[sl]
            _, first = np.unique(wave_pages, return_index=True)
            touched = [int(p) for p in wave_pages[np.sort(first)]]
            for page in touched:
                self.placement.admit(page)
            self.policy.observe(ha[sl], wave_pages)
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
