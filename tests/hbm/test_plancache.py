"""Tests for the shared immutable plan cache."""

import threading

import numpy as np
import pytest

from repro.core.bitmatrix import BitOperator
from repro.errors import ConfigError
from repro.hbm.config import hbm2_config
from repro.hbm.decode import DecodePlan, plan_for
from repro.hbm.plancache import PlanCache, default_plan_cache

CONFIG = hbm2_config()


class TestPlanCache:
    def test_builds_on_miss_returns_same_object_on_hit(self):
        cache = PlanCache()
        built = []

        def build():
            built.append(1)
            return object()

        first = cache.get("k", build)
        second = cache.get("k", build)
        assert first is second
        assert built == [1]
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.get("a", lambda: "A")
        cache.get("b", lambda: "B")
        cache.get("a", lambda: "A")  # refresh a: b is now the LRU entry
        cache.get("c", lambda: "C")
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_stats_snapshot(self):
        cache = PlanCache(maxsize=4)
        cache.get("a", lambda: 1)
        cache.get("a", lambda: 1)
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "maxsize": 4,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_clear_keeps_counters(self):
        cache = PlanCache()
        cache.get("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_maxsize_validated(self):
        with pytest.raises(ConfigError):
            PlanCache(maxsize=0)

    def test_hit_rate_zero_before_lookups(self):
        assert PlanCache().hit_rate == 0.0

    def test_concurrent_gets_build_once(self):
        cache = PlanCache()
        built = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(50):
                cache.get("shared", lambda: built.append(1) or object())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert cache.hits == 8 * 50 - 1

    def test_default_cache_is_process_wide(self):
        assert default_plan_cache() is default_plan_cache()

    def test_multithread_hammer_accounting_is_exact(self):
        """Many threads, many keys, interleaved lookups: the stats
        ledger must balance (hits + misses == lookups) and no key's
        builder may ever run twice — any tenants sharing one cache
        across threads lean on both guarantees."""
        keys = [f"plan{i}" for i in range(16)]
        cache = PlanCache(maxsize=len(keys))  # no evictions in play
        builds = {key: 0 for key in keys}
        builds_lock = threading.Lock()
        n_threads, rounds = 8, 40
        barrier = threading.Barrier(n_threads)

        def builder(key):
            def build():
                with builds_lock:
                    builds[key] += 1
                return (key, object())

            return build

        def worker(offset):
            barrier.wait()
            for round_no in range(rounds):
                # Each thread walks the keys from a different offset so
                # first-touches are spread across all threads.
                key = keys[(round_no + offset) % len(keys)]
                value = cache.get(key, builder(key))
                assert value[0] == key

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lookups = n_threads * rounds
        assert cache.hits + cache.misses == lookups
        assert all(count == 1 for count in builds.values())
        assert cache.misses == len(keys)
        assert cache.hits == lookups - len(keys)
        assert cache.evictions == 0
        assert len(cache) == len(keys)


def _cleared_default_cache() -> PlanCache:
    """The shared cache, emptied; tests read its counters as deltas."""
    cache = default_plan_cache()
    cache.clear()
    return cache


class TestPlanForIntegration:
    def test_plan_for_shares_through_explicit_cache(self):
        cache = _cleared_default_cache()
        hits, misses = cache.hits, cache.misses
        first = plan_for(CONFIG)
        second = plan_for(CONFIG)
        assert first is second
        assert isinstance(first, DecodePlan)
        assert cache.misses - misses == 1 and cache.hits - hits == 1

    def test_identity_operator_dedups_with_none(self):
        """``operator=None`` normalises to the identity: one plan."""
        cache = _cleared_default_cache()
        hits, misses = cache.hits, cache.misses
        layout = CONFIG.layout()
        plain = plan_for(CONFIG)
        mapped = plan_for(CONFIG, BitOperator.identity(layout.width))
        assert plain is mapped
        assert cache.misses - misses == 1 and cache.hits - hits == 1

    def test_distinct_operators_get_distinct_plans(self):
        cache = _cleared_default_cache()
        misses = cache.misses
        layout = CONFIG.layout()
        source = np.roll(np.arange(layout.width), 1)
        shuffled = BitOperator.from_permutation(source)
        plain = plan_for(CONFIG)
        mapped = plan_for(CONFIG, shuffled)
        assert plain is not mapped
        assert cache.misses - misses == 2

    def test_cached_plan_decodes_identically(self):
        pa = np.arange(0, 1 << 16, 64, dtype=np.uint64)
        fresh = DecodePlan(CONFIG).decode(pa)
        cached = plan_for(CONFIG).decode(pa)
        np.testing.assert_array_equal(fresh.channel, cached.channel)
        np.testing.assert_array_equal(fresh.bank, cached.bank)
        np.testing.assert_array_equal(fresh.row, cached.row)
        np.testing.assert_array_equal(fresh.column, cached.column)
