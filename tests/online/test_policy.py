"""Tests for the remap cost/benefit policy."""

import numpy as np
import pytest

from repro.core.bitshuffle import select_window_permutation
from repro.core.chunks import ChunkGeometry
from repro.hbm.config import hbm2_config
from repro.online.policy import (
    AMU_REPROGRAM_NS,
    BENEFIT_MARGIN,
    CMT_WRITE_NS,
    COOLDOWN_WINDOWS,
    MAX_REMAPS_PER_CHUNK,
    PROBE_ACCESSES,
    RemapPolicy,
)
from repro.profiling.bfrv import window_flip_rates


@pytest.fixture(scope="module")
def hbm():
    return hbm2_config()


@pytest.fixture(scope="module")
def geometry(hbm):
    return ChunkGeometry(total_bytes=hbm.total_bytes)


@pytest.fixture()
def policy(hbm, geometry):
    return RemapPolicy(hbm, geometry)


def identity(geometry):
    low, high = geometry.window_slice()
    return np.arange(high - low, dtype=np.int64)


def collapsing_trace(geometry, count=2048):
    """Addresses whose low window bits never flip: under the identity
    mapping every access lands on one channel."""
    low, _ = geometry.window_slice()
    stride = 1 << (low + 10)  # only window positions >= 10 vary
    return np.arange(count, dtype=np.uint64) * np.uint64(stride)


class TestVerdicts:
    def test_degenerate_profile_declined(self, policy, geometry):
        perm = identity(geometry)
        decision = policy.evaluate(
            np.zeros(4, dtype=np.uint64),
            perm,
            perm,
            windows_since_remap=100,
            live_lines=0,
            chunks=1,
            degenerate=True,
        )
        assert not decision.remap
        assert decision.reason == "degenerate-profile"

    def test_same_mapping_declined(self, policy, geometry):
        perm = identity(geometry)
        decision = policy.evaluate(
            collapsing_trace(geometry),
            perm,
            perm.copy(),
            windows_since_remap=100,
            live_lines=1024,
            chunks=1,
        )
        assert decision.reason == "same-mapping"

    def test_cooldown_blocks_back_to_back_remaps(self, policy, geometry):
        perm = identity(geometry)
        candidate = perm[::-1].copy()
        decision = policy.evaluate(
            collapsing_trace(geometry),
            candidate,
            perm,
            windows_since_remap=COOLDOWN_WINDOWS - 1,
            live_lines=1024,
            chunks=1,
        )
        assert decision.reason == "cooldown"
        assert not decision.remap

    def test_chunk_budget_exhaustion_declines(self, policy, geometry):
        perm = identity(geometry)
        decision = policy.evaluate(
            collapsing_trace(geometry),
            perm[::-1].copy(),
            perm,
            windows_since_remap=100,
            live_lines=1024,
            chunks=2,
            chunk_remap_counts={7: MAX_REMAPS_PER_CHUNK},
        )
        assert decision.reason == "chunk-budget"
        assert decision.details["chunks"] == [7]

    def test_no_gain_declined(self, hbm, policy, geometry):
        """A balanced trace gains nothing from remapping; the migration
        cost of a large live group seals the decline."""
        rng = np.random.default_rng(1)
        pa = rng.integers(0, 1 << 28, 2048, dtype=np.uint64) & ~np.uint64(63)
        decision = policy.evaluate(
            pa,
            identity(geometry)[::-1].copy(),
            identity(geometry),
            windows_since_remap=100,
            live_lines=1 << 20,
            chunks=4,
        )
        assert decision.reason == "insufficient-gain"
        assert not decision.remap
        assert decision.migration_cost_ns > 0

    def test_channel_collapse_approved(self, hbm, policy, geometry):
        """The motivating case: the current mapping serialises every
        access onto one channel and the candidate spreads them."""
        pa = collapsing_trace(geometry)
        low, high = geometry.window_slice()
        candidate = select_window_permutation(
            window_flip_rates(pa, (low, high)), hbm.layout(), geometry
        )
        decision = policy.evaluate(
            pa,
            candidate,
            identity(geometry),
            windows_since_remap=100,
            live_lines=32768,
            chunks=1,
        )
        assert decision.remap
        assert decision.reason == "approved"
        assert decision.gain_ns_per_window > 0
        assert (
            decision.projected_gain_ns
            > BENEFIT_MARGIN * decision.migration_cost_ns
        )


class TestPricing:
    def test_migration_estimate_components(self, hbm, policy):
        lines, chunks = 1000, 3
        expected = (
            2.0 * lines * hbm.effective_t_burst_ns / hbm.num_channels
            + chunks * CMT_WRITE_NS
            + AMU_REPROGRAM_NS
        )
        assert policy.migration_estimate_ns(lines, chunks) == pytest.approx(
            expected
        )

    def test_empty_group_costs_only_reprogram(self, policy):
        assert policy.migration_estimate_ns(0, 1) == pytest.approx(
            CMT_WRITE_NS + AMU_REPROGRAM_NS
        )

    def test_probe_caps_replayed_window(self, policy, geometry):
        long_pa = collapsing_trace(geometry, count=PROBE_ACCESSES * 4)
        capped = policy.probe_window_ns(long_pa, identity(geometry))
        tail = policy.probe_window_ns(
            long_pa[-PROBE_ACCESSES :], identity(geometry)
        )
        assert capped == pytest.approx(tail)

    def test_decision_to_dict_is_json_safe(self, policy, geometry):
        import json

        perm = identity(geometry)
        decision = policy.evaluate(
            collapsing_trace(geometry),
            perm,
            perm,
            windows_since_remap=100,
            live_lines=0,
            chunks=1,
        )
        assert json.loads(json.dumps(decision.to_dict()))
