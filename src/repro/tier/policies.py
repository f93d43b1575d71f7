"""Pluggable swap policies for the tiered backend.

The three policies mirror the tracehm family (SNIPPETS.md), reproduced
on this repo's online signals:

* :class:`FastSwap` — promote every slow page touched in the last wave
  (aggressive recency; thrashes on scans);
* :class:`SlowSwap` — never migrate: first-touch placement is final
  (the conservative static baseline);
* :class:`SmartSwap` — rank pages by their decayed reference counts
  (the per-page heat every policy keeps) and promote only when a slow
  page is decisively hotter than the coldest fast page, with the
  hysteresis tightened when the wave's
  :class:`~repro.online.stream.StreamingBFRV` signature says the
  traffic is a sequential scan (scans must not evict the resident hot
  set).

Policies only *plan*; the backend applies the plan through the
placement map, so every policy obeys the same conservation invariants.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import radix_argsort
from repro.errors import ConfigError
from repro.online.stream import StreamingBFRV
from repro.tier.config import TierConfig
from repro.tier.placement import TierPlacement, page_array

__all__ = [
    "FastSwap",
    "SlowSwap",
    "SmartSwap",
    "SwapPolicy",
    "available_policies",
    "create_policy",
]


class SwapPolicy:
    """Base class: per-wave observation + promotion planning.

    Each page's signals live in arrays over every page observed so far,
    sorted by page id: :attr:`pages`, :attr:`heat` (the decayed
    reference count) and :attr:`last_touch` (the last wave that touched
    the page).  A page never observed has heat 0.0 and last touch 0.
    """

    name = "policy"
    decay = 0.5

    def __init__(self, config: TierConfig, line_bits: int = 6):
        self.config = config
        self.line_bits = line_bits
        self.bfrv = StreamingBFRV(
            num_bits=max(config.page_bits, line_bits + 4), decay=self.decay
        )
        self.pages = np.zeros(0, dtype=np.int64)
        self.heat = np.zeros(0, dtype=np.float64)
        self.last_touch = np.zeros(0, dtype=np.int64)
        self.wave = 0
        self.wave_pages = np.zeros(0, dtype=np.int64)
        self.streaming = False

    def observe(self, ha: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Fold one wave's accesses into the online signals.

        Returns the pages this policy had never seen, in first-touch
        order.
        """
        self.wave += 1
        rates = self.bfrv.update(ha)
        pages = np.asarray(pages, dtype=np.int64)
        # The wave's distinct pages by id, each with its first access
        # and its count, from one stable radix sort.
        order = radix_argsort(pages)
        ranked = pages[order]
        head = np.ones(ranked.size, dtype=bool)
        head[1:] = ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(head)
        seen, first = ranked[starts], order[starts]
        counts = np.diff(starts, append=ranked.size)
        # First-touch order, deduplicated — deterministic across runs.
        touch_order = np.argsort(first)
        self.wave_pages = seen[touch_order]
        at, found = self._lookup(seen)
        new = self.wave_pages[~found[touch_order]]
        if not found.all():
            fresh = ~found
            self.pages = np.insert(self.pages, at[fresh], seen[fresh])
            self.heat = np.insert(self.heat, at[fresh], 0.0)
            self.last_touch = np.insert(self.last_touch, at[fresh], 0)
            at = np.searchsorted(self.pages, seen)
        # Every page decays, then each touched page adds its count: per
        # page, the same float multiply and add as a decayed dict.
        self.heat *= self.decay
        self.heat[at] += counts
        self.last_touch[at] = self.wave
        self.streaming = self._looks_streaming(rates)
        return new

    def _lookup(self, pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slots of ``pages`` in :attr:`pages`, and which were found."""
        at = np.searchsorted(self.pages, pages)
        found = np.zeros(pages.size, dtype=bool)
        inside = at < self.pages.size
        found[inside] = self.pages[at[inside]] == pages[inside]
        return at, found

    def _signals(self, pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Heat and last touch of ``pages`` (0.0 and 0 when never seen)."""
        at, found = self._lookup(pages)
        heat = np.zeros(pages.size, dtype=np.float64)
        touch = np.zeros(pages.size, dtype=np.int64)
        heat[found] = self.heat[at[found]]
        touch[found] = self.last_touch[at[found]]
        return heat, touch

    def _looks_streaming(self, rates: np.ndarray) -> bool:
        """A sequential scan flips the line-stride bit nearly every pair."""
        stride_bit = self.line_bits
        if rates.size <= stride_bit + 3:
            return False
        high = rates[stride_bit + 2 :]
        return float(rates[stride_bit]) > 0.8 and float(high.mean()) < 0.3

    def refs(self, page: int) -> float:
        """Decayed reference count of a page (0.0 when never seen)."""
        heat, _ = self._signals(np.array([page], dtype=np.int64))
        return float(heat[0])

    def _victims(self, placement: TierPlacement) -> tuple[list, list]:
        """Fast pages coldest-first, with their heat."""
        fast = page_array(placement.fast)
        heat, touch = self._signals(fast)
        # One sort on the total key (heat, last touch, page).
        order = np.lexsort((fast, touch, heat))
        return fast[order].tolist(), heat[order].tolist()

    def victim_order(self, placement: TierPlacement) -> list[int]:
        """Fast pages coldest-first (refs, then recency, then id)."""
        return self._victims(placement)[0]

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        """Slow pages to promote this wave (hottest first)."""
        raise NotImplementedError  # pragma: no cover - abstract


class FastSwap(SwapPolicy):
    """Promote everything touched last wave (recency, no hysteresis)."""

    name = "fast"

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        if placement.fast_capacity is None:
            return []
        movable = page_array(placement.slow - placement.pinned)
        touched = self.wave_pages
        return touched[np.isin(touched, movable)][:budget].tolist()


class SlowSwap(SwapPolicy):
    """Never migrate: first-touch placement is final."""

    name = "slow"

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        return []


class SmartSwap(SwapPolicy):
    """Decayed-heat ranking with scan-aware hysteresis.

    Beyond beating the victim by the hysteresis factor, a candidate
    must clear a break-even floor: swapping a page costs two page
    copies, which only pays off when the page's decayed reference count
    predicts enough future fast-tier hits.  The floor is
    ``2 * lines_per_page / reuse_horizon`` — the per-line copy cost and
    per-access slow-tier saving are the same order, so refs must cover
    the copied lines amortised over the assumed reuse horizon (waves of
    continued heat).  Without it the policy churns cold pages for cold
    pages whose refs have decayed to ~0.
    """

    name = "smart"
    hysteresis = 1.5
    reuse_horizon = 8.0

    def __init__(self, config: TierConfig, line_bits: int = 6):
        super().__init__(config, line_bits)
        lines_per_page = 1 << max(config.page_bits - line_bits, 0)
        self.min_refs = 2.0 * lines_per_page / self.reuse_horizon

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        if placement.fast_capacity is None:
            return []
        # A page with heat > 0 has been seen, so the candidates are the
        # seen pages that are warm, slow and unpinned.
        movable = page_array(placement.slow - placement.pinned)
        warm = (self.heat > 0.0) & np.isin(self.pages, movable)
        pages, heat = self.pages[warm], self.heat[warm]
        # Hottest first: one sort on the total key (-heat, page).  Each
        # candidate the loop reaches is promoted or ends it, so it never
        # reaches past the first ``budget``.
        order = np.lexsort((pages, -heat))[:budget]
        candidates = zip(heat[order].tolist(), pages[order].tolist())
        victims = None
        factor = self.hysteresis * (2.0 if self.streaming else 1.0)
        promote: list[int] = []
        free = placement.fast_free or 0
        victim_index = 0
        for refs, page in candidates:
            if free > 0:
                # No demotion needed: half the swap cost, half the bar.
                if refs < self.min_refs / 2.0:
                    break
                promote.append(page)
                free -= 1
                continue
            if victims is None:
                victims, victim_heat = self._victims(placement)
            if victim_index >= len(victims):
                break
            bar = max(factor * victim_heat[victim_index], self.min_refs)
            if refs > bar:
                promote.append(page)
                victim_index += 1
            else:
                # Candidates are ranked hottest-first: nothing that
                # follows can clear the bar either.
                break
        return promote


_POLICIES: dict[str, type[SwapPolicy]] = {
    FastSwap.name: FastSwap,
    SlowSwap.name: SlowSwap,
    SmartSwap.name: SmartSwap,
}


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


def create_policy(
    name: str, config: TierConfig, line_bits: int = 6
) -> SwapPolicy:
    """Instantiate a swap policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown swap policy {name!r}; "
            f"available: {', '.join(available_policies())}"
        ) from None
    return cls(config, line_bits=line_bits)
