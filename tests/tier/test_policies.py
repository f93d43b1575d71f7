"""Swap-policy behaviour: recency, hysteresis, break-even economics."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tier.config import TierConfig
from repro.tier.placement import TierPlacement
from repro.tier.policies import available_policies, create_policy

CONFIG = TierConfig(fast_pages=4, wave_accesses=64)


def _observe(policy, pages, repeats=1):
    """Feed a wave touching ``pages`` (each ``repeats`` times)."""
    tiled = np.repeat(np.asarray(pages, dtype=np.uint64), repeats)
    ha = tiled * np.uint64(CONFIG.page_bytes)
    policy.observe(ha, tiled.astype(np.int64))


class TestRegistry:
    def test_available(self):
        assert available_policies() == ("fast", "slow", "smart")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="unknown swap policy"):
            create_policy("telepathic", CONFIG)


class TestFastSwap:
    def test_promotes_touched_slow_pages_up_to_budget(self):
        policy = create_policy("fast", CONFIG)
        placement = TierPlacement(4)
        for page in range(8):
            placement.admit(page)
        _observe(policy, [4, 5, 6, 7])
        assert policy.plan(placement, budget=2) == [4, 5]

    def test_unbounded_capacity_never_swaps(self):
        policy = create_policy("fast", CONFIG)
        placement = TierPlacement(None)
        placement.admit(1)
        _observe(policy, [1])
        assert policy.plan(placement, budget=8) == []


class TestSlowSwap:
    def test_never_plans(self):
        policy = create_policy("slow", CONFIG)
        placement = TierPlacement(1)
        for page in range(4):
            placement.admit(page)
        _observe(policy, [1, 2, 3], repeats=100)
        assert policy.plan(placement, budget=8) == []


class TestSmartSwap:
    def test_cold_churn_blocked_by_break_even_floor(self):
        policy = create_policy("smart", CONFIG)
        placement = TierPlacement(4)
        for page in range(8):
            placement.admit(page)
        # Slow pages touched once: refs ~1, far below the floor.
        _observe(policy, [4, 5, 6, 7])
        assert policy.refs(4) < policy.min_refs
        assert policy.plan(placement, budget=8) == []

    def test_hot_slow_page_clears_the_bar(self):
        policy = create_policy("smart", CONFIG)
        placement = TierPlacement(4)
        for page in range(8):
            placement.admit(page)
        hot = int(policy.min_refs) * 2 + 8
        _observe(policy, [6], repeats=hot)
        assert policy.refs(6) > policy.min_refs
        plan = policy.plan(placement, budget=8)
        assert plan == [6]

    def test_streaming_tightens_hysteresis(self):
        policy = create_policy("smart", CONFIG)
        # A perfect sequential sweep must trip the BFRV scan signature.
        ha = np.arange(4096, dtype=np.uint64) * np.uint64(64)
        pages = (ha >> np.uint64(CONFIG.page_bits)).astype(np.int64)
        policy.observe(ha, pages)
        assert policy.streaming

    def test_victims_are_coldest_first(self):
        policy = create_policy("smart", CONFIG)
        placement = TierPlacement(4)
        for page in range(4):
            placement.admit(page)
        _observe(policy, [0], repeats=50)
        _observe(policy, [1], repeats=5)
        order = policy.victim_order(placement)
        assert order.index(2) < order.index(0)
        assert order.index(3) < order.index(0)
        assert order.index(1) < order.index(0)
