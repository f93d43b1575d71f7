"""The array-based tiered backend against the dict-based oracle.

``tests/tier/tier_oracle.py`` keeps the former dict-based wave
bookkeeping: a ``VariableActivity`` keyed by page id, one
``TierPlacement.admit`` call per touched page, and both rankings as
sorted Python tuples.  Both run the same random page streams,
capacities, budgets, wave sizes, policies and multi-call sequences side
by side and must agree on every output bit: the run statistics, the
tier traffic after every wave, the placement, the migrated set, the
translation cache's LRU order and each page's decayed heat and last
touch.  Dict key order is not state: the package keeps no such dicts,
and every ranking sorts on a total key.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm import hbm2_config
from repro.hbm.decode import decode_trace
from repro.tier.backend import TieredBackend

from tests.tier import tier_oracle

CONFIG = hbm2_config()
LINES_PER_PAGE = 4096 // CONFIG.line_bytes


def page_stream(seed: int, count: int, universe: int, shape: str) -> np.ndarray:
    """``count`` line addresses over ``universe`` pages."""
    rng = np.random.default_rng(seed)
    lines = universe * LINES_PER_PAGE
    if shape == "uniform":
        picked = rng.integers(0, lines, count)
    elif shape == "skewed":
        hot = rng.integers(0, universe, max(universe // 8, 1))
        pages = np.where(
            rng.random(count) < 0.9,
            rng.choice(hot, count),
            rng.integers(0, universe, count),
        )
        picked = pages * LINES_PER_PAGE + rng.integers(0, LINES_PER_PAGE, count)
    elif shape == "scan":
        picked = (rng.integers(0, lines) + np.arange(count)) % lines
    else:  # one page hammered, then a burst of others
        picked = np.concatenate(
            [
                np.full(count // 2, rng.integers(0, lines)),
                rng.integers(0, lines, count - count // 2),
            ]
        )
    return picked.astype(np.uint64) * np.uint64(CONFIG.line_bytes)


def signals(policy) -> str:
    """``(page, heat, last touch)`` for every page seen, by page id."""
    if isinstance(policy, tier_oracle.SwapPolicy):
        heat = policy.activity.references
        rows = [(p, heat[p], policy.last_touch[p]) for p in sorted(heat)]
    else:
        rows = list(
            zip(
                policy.pages.tolist(),
                policy.heat.tolist(),
                policy.last_touch.tolist(),
            )
        )
    return repr(rows)


def state(backend, waves: list) -> dict:
    """Every bit a run leaves behind, in comparable form."""
    policy, placement = backend.policy, backend.placement
    return {
        "traffic": backend.last_traffic.to_dict(),
        "waves": list(waves),
        "fast": sorted(placement.fast),
        "slow": sorted(placement.slow),
        "pinned": sorted(placement.pinned),
        "migrated": sorted(backend._migrated),
        "trans": list(backend._trans._entries),
        "signals": signals(policy),
        "wave_pages": [int(p) for p in policy.wave_pages],
        "wave": policy.wave,
        "streaming": policy.streaming,
        "bfrv": repr(policy.bfrv.rates.tolist()),
    }


calls = st.lists(
    st.tuples(
        st.integers(0, 2**16),  # stream seed
        st.integers(0, 2500),  # accesses
        st.integers(1, 96),  # page universe
        st.sampled_from(["uniform", "skewed", "scan", "hammer"]),
        st.lists(st.integers(0, 96), max_size=3),  # pages retired first
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=120, deadline=None)
@given(
    policy=st.sampled_from(["fast", "slow", "smart"]),
    fast_pages=st.integers(0, 40),
    wave=st.integers(1, 700),
    budget=st.integers(0, 12),
    trans=st.integers(0, 10),
    calls=calls,
)
def test_matches_oracle_bit_for_bit(policy, fast_pages, wave, budget, trans, calls):
    options = dict(
        policy=policy,
        fast_pages=fast_pages,
        wave_accesses=wave,
        swap_budget=budget,
        trans_cache_pages=trans,
    )
    sides = []
    for cls in (TieredBackend, tier_oracle.TieredBackend):
        waves: list = []
        backend = cls(
            CONFIG,
            on_wave=lambda i, placement, traffic, waves=waves: waves.append(
                (i, sorted(placement.fast), sorted(placement.slow),
                 traffic.to_dict())
            ),
            **options,
        )
        sides.append((backend, waves))
    for seed, count, universe, shape, retire in calls:
        ha = page_stream(seed, count, universe, shape)
        results = []
        for backend, waves in sides:
            for page in retire:
                backend.retire_page(page)
            waves.clear()
            stats = backend.simulate_decoded(decode_trace(ha, CONFIG))
            results.append(
                (json.dumps(stats.to_dict(), sort_keys=True), state(backend, waves))
            )
        assert results[0] == results[1]


def test_demotion_never_picks_a_page_promoted_this_wave():
    """A retirement frees a fast slot; the next wave promotes into it,
    then ranks victims while that coldest page is already moved."""
    page = np.uint64(4096)
    calls = (
        # Pages 0-3 fill the fast tier; 4 and 5 start slow and are
        # promoted over 0 and 1.
        np.repeat(np.arange(6, dtype=np.uint64), [50, 50, 50, 50, 1, 1]),
        # No new page: 0 fills the slot page 2's retirement freed, and
        # is then the coldest fast page when 1 needs a victim.
        np.repeat(np.array([3, 4, 5, 0, 1], dtype=np.uint64), [50, 50, 50, 1, 1]),
    )
    sides = [
        cls(CONFIG, policy="fast", fast_pages=4, wave_accesses=1000)
        for cls in (TieredBackend, tier_oracle.TieredBackend)
    ]
    for index, pages in enumerate(calls):
        results = []
        for backend in sides:
            if index:
                backend.retire_page(2)
            stats = backend.simulate(pages * page)
            results.append(
                (json.dumps(stats.to_dict(), sort_keys=True), state(backend, []))
            )
        assert results[0] == results[1]
    assert sides[1].placement.fast == {0, 1, 3, 5}

