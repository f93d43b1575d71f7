"""The tiered backend: parity, pressure accounting, degenerate streams.

The anchor property (the PR's acceptance bar): with the slow tier
disabled — fast capacity covers the whole footprint, the default
``TierConfig`` — a tiered machine's results fingerprint bit-identically
to the delegate fast-tier backend on every system family.  Under
pressure, the split must still conserve the exact ``RunStats``
invariants every backend obeys (requests = hits + misses, per-channel
counts sum to requests), and degenerate streams (empty trace, single
request) must flow through every policy.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError
from repro.hbm.backend import create_backend
from repro.hbm.decode import decode_trace
from repro.hbm import hbm2_config
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.tier.backend import TieredBackend
from repro.tier.config import SlowTierConfig, TierConfig
from repro.tier.policies import available_policies

CONFIG = hbm2_config()
SYSTEMS = ("bs_dm", "bs_bsm", "bs_hm", "sdm_bsm", "sdm_bsm_ml4", "sdm_bsm_ml32")


def _trace(n: int, seed: int = 0, span_bytes: int = 8 * 1024 * 1024):
    rng = np.random.default_rng(seed)
    lines = span_bytes // CONFIG.line_bytes
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(
        CONFIG.line_bytes
    )


def _assert_stats_equal(a, b):
    assert a.requests == b.requests
    assert a.bytes_moved == b.bytes_moved
    assert a.makespan_ns == b.makespan_ns
    assert a.row_hits == b.row_hits
    assert a.row_misses == b.row_misses
    np.testing.assert_array_equal(
        a.per_channel_requests, b.per_channel_requests
    )
    np.testing.assert_array_equal(
        a.per_channel_busy_ns, b.per_channel_busy_ns
    )


class TestDelegateParity:
    @pytest.mark.parametrize("key", SYSTEMS)
    def test_fingerprint_identical_when_slow_tier_disabled(self, key):
        workload = api.mixed_stride_workload()
        fast = Machine(
            system_by_key(key), backend="fast", dl_config=api.QUICK_DL_CONFIG
        ).run(workload)
        tiered = Machine(
            system_by_key(key), backend="tiered", dl_config=api.QUICK_DL_CONFIG
        ).run(workload)
        assert json.dumps(
            tiered.fingerprint(), sort_keys=True
        ) == json.dumps(fast.fingerprint(), sort_keys=True)
        # The tiered run additionally carries its traffic record —
        # outside the fingerprint, all-fast, zero overhead.
        assert tiered.tier_traffic is not None
        assert tiered.tier_traffic.slow_accesses == 0
        assert tiered.tier_traffic.overhead_ns == 0.0
        assert fast.tier_traffic is None

    def test_raw_stats_identical_with_forced_miss(self):
        ha = _trace(4096, seed=3)
        decoded = decode_trace(ha, CONFIG)
        forced = np.zeros(len(decoded), dtype=bool)
        forced[::7] = True
        fast = create_backend("fast", CONFIG, max_inflight=32)
        tiered = TieredBackend(CONFIG, max_inflight=32)
        a = fast.simulate_decoded(decoded, forced_miss=forced)
        b = tiered.simulate_decoded(decoded, forced_miss=forced)
        _assert_stats_equal(a, b)


class TestPressureAccounting:
    def test_stats_invariants_under_pressure(self):
        ha = _trace(8192, seed=1)
        backend = TieredBackend(
            CONFIG, policy="smart", fast_pages=32, wave_accesses=1024
        )
        stats = backend.simulate(ha)
        traffic = backend.last_traffic
        assert stats.requests == 8192
        assert stats.row_hits + stats.row_misses == stats.requests
        assert int(stats.per_channel_requests.sum()) == stats.requests
        assert traffic.fast_accesses + traffic.slow_accesses == 8192
        assert traffic.slow_accesses > 0
        assert traffic.swap_waves == 8
        assert backend.placement.check_invariants() == []

    def test_all_slow_baseline_times_everything_slow(self):
        ha = _trace(2048, seed=4)
        backend = TieredBackend(CONFIG, policy="slow", fast_pages=0)
        stats = backend.simulate(ha)
        traffic = backend.last_traffic
        assert traffic.fast_accesses == 0
        assert traffic.slow_accesses == 2048
        assert stats.row_hits == 0
        assert stats.row_misses == 2048
        assert stats.makespan_ns >= backend.tier.slow.service_ns(2048)


class TestDegenerateStreams:
    @pytest.mark.parametrize("policy", available_policies())
    def test_empty_trace(self, policy):
        backend = TieredBackend(
            CONFIG, policy=policy, fast_pages=8, wave_accesses=64
        )
        stats = backend.simulate(np.zeros(0, dtype=np.uint64))
        assert stats.requests == 0
        assert stats.makespan_ns == 0.0
        assert backend.last_traffic.accesses == 0

    @pytest.mark.parametrize("policy", available_policies())
    def test_single_request(self, policy):
        backend = TieredBackend(
            CONFIG, policy=policy, fast_pages=1, wave_accesses=64
        )
        stats = backend.simulate(
            np.array([CONFIG.line_bytes * 17], dtype=np.uint64)
        )
        assert stats.requests == 1
        assert backend.last_traffic.fast_accesses == 1
        assert backend.placement.check_invariants() == []


class TestRetirement:
    def test_retired_page_pinned_and_never_promoted(self):
        backend = TieredBackend(
            CONFIG, policy="smart", fast_pages=4, wave_accesses=128
        )
        backend.retire_page(5)
        assert backend.last_traffic.retired_pins == 1
        assert backend.placement.tier_of(5) == "slow"
        # Hammer the retired page: hot, but it must stay slow.
        page_bytes = backend.tier.page_bytes
        ha = np.full(1024, 5 * page_bytes, dtype=np.uint64)
        backend.simulate(ha)
        assert backend.placement.tier_of(5) == "slow"
        assert backend.placement.is_pinned(5)
        assert backend.last_traffic.slow_accesses == 1024

    def test_retire_fast_page_demotes_without_shrinking_capacity(self):
        backend = TieredBackend(CONFIG, fast_pages=4, wave_accesses=64)
        backend.placement.admit(1)
        assert backend.placement.tier_of(1) == "fast"
        backend.retire_page(1)
        assert backend.placement.tier_of(1) == "slow"
        assert backend.placement.fast_capacity == 4


class TestConstruction:
    def test_self_delegation_rejected(self):
        with pytest.raises(ConfigError, match="cannot delegate to itself"):
            TieredBackend(CONFIG, delegate="tiered")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown swap policy"):
            TieredBackend(CONFIG, policy="telepathic")

    def test_registry_construction(self):
        backend = create_backend(
            "tiered", CONFIG, max_inflight=16, fast_pages=8
        )
        assert isinstance(backend, TieredBackend)
        assert backend.tier.fast_pages == 8

    @pytest.mark.parametrize(
        "knob", ["fast_pages", "wave_accesses", "swap_budget", "trans_cache_pages"]
    )
    @pytest.mark.parametrize("value", [True, 2.5, 1024.0, "8"])
    def test_count_knobs_must_be_integers(self, knob, value):
        with pytest.raises(ConfigError, match=f"{knob} must be an integer"):
            TieredBackend(CONFIG, **{knob: value})

    @pytest.mark.parametrize(
        "knob, value",
        [("fast_pages", -1), ("wave_accesses", 0), ("swap_budget", -1),
         ("trans_cache_pages", -2)],
    )
    def test_count_knobs_keep_their_lower_bounds(self, knob, value):
        with pytest.raises(ConfigError, match=f"{knob} must be >="):
            TieredBackend(CONFIG, **{knob: value})

    @pytest.mark.parametrize("value", [True, 12.0])
    def test_page_bits_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="page_bits must be an integer"):
            TieredBackend(CONFIG, tier=TierConfig(page_bits=value))

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_slow_channels_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="channels must be an integer"):
            SlowTierConfig(channels=value)

    def test_numpy_integer_counts_become_ints(self):
        backend = TieredBackend(
            CONFIG, fast_pages=np.int64(8), wave_accesses=np.int32(64)
        )
        assert type(backend.tier.fast_pages) is int
        assert type(backend.tier.wave_accesses) is int
        backend.simulate(np.arange(256, dtype=np.uint64) * np.uint64(4096))
        assert backend.last_traffic.swap_waves == 4


class TestStateAcrossCalls:
    """Placement, policy signals, the translation cache and the
    migrated set persist from one ``simulate`` call to the next."""

    @staticmethod
    def _skewed():
        # A first-touch sweep of 256 pages fills the fast tier with
        # pages 0-31; then 90 % of 40k lines hit the 16 pages 200-215.
        rng = np.random.default_rng(9)
        hot = rng.random(40_000) < 0.9
        lines = np.where(
            hot,
            rng.integers(200 * 64, 216 * 64, 40_000),
            rng.integers(0, 256 * 64, 40_000),
        ).astype(np.uint64)
        sweep = np.arange(256, dtype=np.uint64) * np.uint64(4096)
        return np.concatenate([sweep, lines * np.uint64(CONFIG.line_bytes)])

    @pytest.mark.parametrize("delegate", ("fast", "vector", "event"))
    def test_second_call_starts_from_the_first_calls_state(self, delegate):
        ha = self._skewed()
        backend = TieredBackend(CONFIG, fast_pages=32, delegate=delegate)
        first = backend.simulate(ha)
        assert first.makespan_ns == 667_670.0
        assert backend.last_traffic.promotions == 16
        second = backend.simulate(ha)
        # The hot set is already fast: nothing to promote, less time.
        assert second.makespan_ns == 314_650.0
        assert backend.last_traffic.promotions == 0
        assert backend.last_traffic.fast_accesses == 36_596
        # A fresh backend repeats the first call, not the second.
        fresh = TieredBackend(CONFIG, fast_pages=32, delegate=delegate)
        _assert_stats_equal(fresh.simulate(ha), first)
