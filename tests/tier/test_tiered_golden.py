"""Golden digests of the tiered backend"s outputs.

Each case runs one hardware-address trace through one
:class:`~repro.tier.backend.TieredBackend` and hashes the JSON form of
the resulting :class:`~repro.hbm.stats.RunStats`, the JSON form of the
run's :class:`~repro.tier.stats.TierTraffic` and the sorted final fast,
slow and pinned page sets.  Any change to admission, the swap plan, the
victim order, the translation cache or the fast/slow split that moves a
single counter, charge or placement shows up here.

The grid covers every swap policy on three access shapes (a skewed hot
set behind a cold-start sweep, uniform capacity pressure and a
sequential scan) with both fast-tier delegates, plus the edges: a wave
size that does not divide the trace, no swap budget, no translation
cache, no fast tier, pages retired before the run, and one backend
driven twice (its state persists across calls).  Two more cases run
the pressure cells of the ``tier-calib`` benchmark end to end through a
:class:`~repro.system.machine.Machine`: 1,024 pages over a 256-page
fast tier, so the smart policy ranks a large slow set and forces
demotions every wave it promotes.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.hbm import hbm2_config
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.tier.backend import TieredBackend
from repro.workloads.synthetic import TieredPressureWorkload

CONFIG = hbm2_config()
LINE = CONFIG.line_bytes
PAGE = 4096
ARENA_PAGES = 512
FAST_PAGES = 32
WAVE = 1024


def skewed_trace(count: int = 20_000, seed: int = 3) -> np.ndarray:
    """A tail-first page sweep, then 90 % of lines in a 32-page hot set."""
    rng = np.random.default_rng(seed)
    sweep = np.arange(ARENA_PAGES - 1, -1, -1, dtype=np.uint64) * np.uint64(PAGE)
    hot = rng.random(count) < 0.9
    lines = np.where(
        hot,
        rng.integers(0, FAST_PAGES * PAGE // LINE, count),
        rng.integers(0, ARENA_PAGES * PAGE // LINE, count),
    ).astype(np.uint64)
    return np.concatenate([sweep, lines * np.uint64(LINE)])


def uniform_trace(count: int = 20_000, seed: int = 4) -> np.ndarray:
    """Uniform random lines over an arena 16x the fast tier."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, ARENA_PAGES * PAGE // LINE, count, dtype=np.uint64)
    return lines * np.uint64(LINE)


def scan_trace(count: int = 20_000) -> np.ndarray:
    """Consecutive lines, wrapping over 256 pages."""
    lines = np.arange(count, dtype=np.uint64) % np.uint64(256 * PAGE // LINE)
    return lines * np.uint64(LINE)


TRACES = {"skewed": skewed_trace, "uniform": uniform_trace, "scan": scan_trace}


@lru_cache(maxsize=None)
def trace(name: str) -> np.ndarray:
    return TRACES[name]()


def digest(backend: TieredBackend, stats) -> str:
    return digest_of(stats, backend.last_traffic, backend.placement)


def digest_of(stats, traffic, placement) -> str:
    text = json.dumps(
        {
            "stats": stats.to_dict(),
            "traffic": traffic.to_dict(),
            "fast": sorted(placement.fast),
            "slow": sorted(placement.slow),
            "pinned": sorted(placement.pinned),
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(name: str, **options) -> str:
    options = {"fast_pages": FAST_PAGES, "wave_accesses": WAVE, **options}
    backend = TieredBackend(CONFIG, **options)
    return digest(backend, backend.simulate(trace(name)))


GOLDEN = {
    ("fast", "scan", "fast"): "0d0540bea431eb73",
    ("fast", "scan", "vector"): "00ef66e5b8d6d93c",
    ("fast", "skewed", "fast"): "accb802578d866a8",
    ("fast", "skewed", "vector"): "431f38b3e540ea6b",
    ("fast", "uniform", "fast"): "4394b6096a504ee2",
    ("fast", "uniform", "vector"): "52affc5801b5eeb0",
    ("slow", "scan", "fast"): "28c980c3fb7477a8",
    ("slow", "scan", "vector"): "6aff7178b49c3b74",
    ("slow", "skewed", "fast"): "58193ab7644d6df5",
    ("slow", "skewed", "vector"): "4e5ec4217605d4fe",
    ("slow", "uniform", "fast"): "f2e8f822e3c8b28f",
    ("slow", "uniform", "vector"): "4c53aa0670193bb5",
    ("smart", "scan", "fast"): "8a8c9a7ba35cf4f0",
    ("smart", "scan", "vector"): "875fb11feadc30d6",
    ("smart", "skewed", "fast"): "e0b634b5b0382c0f",
    ("smart", "skewed", "vector"): "d98f89ed057260dd",
    ("smart", "uniform", "fast"): "f2e8f822e3c8b28f",
    ("smart", "uniform", "vector"): "4c53aa0670193bb5",
    ("ragged-wave", "fast"): "1a169005b5d7202a",
    ("ragged-wave", "smart"): "5b2ffb6e02ffebac",
    "no-budget": "58193ab7644d6df5",
    "no-trans-cache": "654a2644f9c6a711",
    "no-fast-tier": "542c1a7611d6c1a0",
    "retired": "efa23bf09cc23cd0",
    "second-call": ("e0b634b5b0382c0f", "8cafc9ea0266a498"),
    ("pressure", 0.9): "848bc81578760311",
    ("pressure", 0.0): "b747d4a70cfa1bb6",
}


@pytest.mark.parametrize("delegate", ("fast", "vector"))
@pytest.mark.parametrize("shape", sorted(TRACES))
@pytest.mark.parametrize("policy", ("fast", "slow", "smart"))
def test_policy_grid_matches_golden(policy, shape, delegate):
    got = run(shape, policy=policy, delegate=delegate)
    assert got == GOLDEN[policy, shape, delegate]


@pytest.mark.parametrize("policy", ("fast", "smart"))
def test_ragged_last_wave_matches_golden(policy):
    """1000-access waves leave a 512-access last wave."""
    got = run("skewed", policy=policy, wave_accesses=1000)
    assert got == GOLDEN["ragged-wave", policy]


def test_no_swap_budget_matches_golden():
    assert run("skewed", policy="fast", swap_budget=0) == GOLDEN["no-budget"]


def test_no_translation_cache_matches_golden():
    got = run("skewed", policy="smart", trans_cache_pages=0)
    assert got == GOLDEN["no-trans-cache"]


def test_no_fast_tier_matches_golden():
    assert run("uniform", policy="smart", fast_pages=0) == GOLDEN["no-fast-tier"]


def test_retired_pages_match_golden():
    """Retire two hot pages and one cold one before the first wave."""
    backend = TieredBackend(
        CONFIG, policy="smart", fast_pages=FAST_PAGES, wave_accesses=WAVE
    )
    for page in (3, 17, 400):
        backend.retire_page(page)
    stats = backend.simulate(trace("skewed"))
    assert backend.placement.pinned == {3, 17, 400}
    assert digest(backend, stats) == GOLDEN["retired"]


def test_second_call_matches_golden():
    """Placement, signals and the translation cache carry over."""
    backend = TieredBackend(
        CONFIG, policy="smart", fast_pages=FAST_PAGES, wave_accesses=WAVE
    )
    first = digest(backend, backend.simulate(trace("skewed")))
    second = digest(backend, backend.simulate(trace("uniform")))
    assert (first, second) == GOLDEN["second-call"]


@pytest.mark.parametrize("hot", (0.9, 0.0))
def test_pressure_cell_matches_golden(hot):
    """The ``tier-calib`` pressure cells: BS+DM, smart, 256 fast pages."""
    seen = {}

    def capture(index, placement, traffic):
        seen["placement"], seen["waves"] = placement, index + 1

    workload = TieredPressureWorkload(
        footprint_bytes=4 << 20, hot_fraction=hot, accesses=65_536
    )
    result = Machine(
        system_by_key("bs_dm"),
        backend="tiered",
        backend_options={
            "policy": "smart",
            "fast_pages": 256,
            "on_wave": capture,
        },
    ).run(workload)
    placement, traffic = seen["placement"], result.tier_traffic
    assert len(placement.known) == 1024
    assert traffic.demotions > 0
    assert seen["waves"] == traffic.swap_waves
    got = digest_of(result.stats, traffic, placement)
    assert got == GOLDEN["pressure", hot]
