"""Pluggable swap policies for the tiered backend.

The three policies mirror the tracehm family (SNIPPETS.md), reproduced
on this repo's online signals:

* :class:`FastSwap` — promote every slow page touched in the last wave
  (aggressive recency; thrashes on scans);
* :class:`SlowSwap` — never migrate: first-touch placement is final
  (the conservative static baseline);
* :class:`SmartSwap` — rank pages by the decayed reference counts a
  :class:`~repro.online.stream.VariableActivity` accumulates (page ids
  as the variable tags) and promote only when a slow page is decisively
  hotter than the coldest fast page, with the hysteresis tightened
  when the wave's :class:`~repro.online.stream.StreamingBFRV` signature
  says the traffic is a sequential scan (scans must not evict the
  resident hot set).

Policies only *plan*; the backend applies the plan through the
placement map, so every policy obeys the same conservation invariants.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.online.stream import StreamingBFRV, VariableActivity
from repro.tier.config import TierConfig
from repro.tier.placement import TierPlacement

__all__ = [
    "FastSwap",
    "SlowSwap",
    "SmartSwap",
    "SwapPolicy",
    "available_policies",
    "create_policy",
]


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

    def pick_victim(
        self, placement: TierPlacement, exclude: set[int]
    ) -> int | None:
        """The coldest demotable fast page, or None."""
        for page in self.victim_order(placement):
            if page not in exclude:
                return page
        return None

    def plan(self, placement: TierPlacement, budget: int) -> list[int]:
        """Slow pages to promote this wave (hottest first)."""
        raise NotImplementedError  # pragma: no cover - abstract


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


_POLICIES: dict[str, type[SwapPolicy]] = {
    FastSwap.name: FastSwap,
    SlowSwap.name: SlowSwap,
    SmartSwap.name: SmartSwap,
}


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


def create_policy(
    name: str, config: TierConfig, line_bits: int = 6, **kwargs
) -> SwapPolicy:
    """Instantiate a swap policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown swap policy {name!r}; "
            f"available: {', '.join(available_policies())}"
        ) from None
    return cls(config, line_bits=line_bits, **kwargs)
