"""Tests for tenant admission and mapping-budget carving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CMTError, ConfigError
from repro.service.registry import TenantRegistry, TenantSpec
from repro.service.tenant import SharedArtifacts
from repro.system.config import SystemConfig, system_by_key

#: One shared-artifacts instance for the whole module: admission tests
#: exercise the budget partition, not artifact construction.
SHARED = SharedArtifacts.create()


def registry(**kwargs) -> TenantRegistry:
    kwargs.setdefault("shared", SHARED)
    return TenantRegistry(**kwargs)


class TestTenantSpec:
    def test_system_resolved_from_key(self):
        spec = TenantSpec("t", system="bs_dm")
        assert spec.resolved_system().key == "bs_dm"

    def test_system_config_passes_through(self):
        system = system_by_key("sdm_bsm")
        assert TenantSpec("t", system=system).resolved_system() is system

    def test_defaults(self):
        spec = TenantSpec("t")
        assert spec.quota == 4
        assert isinstance(spec.resolved_system(), SystemConfig)


class TestAdmission:
    def test_namespaces_carved_contiguously(self):
        reg = registry()
        a = reg.admit(TenantSpec("a", quota=4))
        b = reg.admit(TenantSpec("b", quota=2))
        assert a.namespace.base == 1 and a.namespace.end == 5
        assert b.namespace.base == 5 and b.namespace.end == 7
        assert not a.namespace.overlaps(b.namespace)
        assert reg.remaining_slots == 256 - 1 - 6

    def test_duplicate_name_rejected(self):
        reg = registry()
        reg.admit(TenantSpec("a"))
        with pytest.raises(ConfigError, match="already admitted"):
            reg.admit(TenantSpec("a"))

    def test_zero_quota_rejected(self):
        with pytest.raises(ConfigError, match="quota"):
            registry().admit(TenantSpec("a", quota=0))

    def test_budget_exhaustion(self):
        reg = registry(max_mappings=8)  # 7 carvable after identity
        reg.admit(TenantSpec("a", quota=4))
        with pytest.raises(CMTError, match="budget exhausted"):
            reg.admit(TenantSpec("b", quota=4))
        # The failed admission reserved nothing.
        assert "b" not in reg
        reg.admit(TenantSpec("b", quota=3))

    def test_tiny_table_rejected(self):
        with pytest.raises(ConfigError):
            registry(max_mappings=1)

    def test_contexts_share_artifacts(self):
        shared = SharedArtifacts.create()
        reg = registry(shared=shared)
        a = reg.admit(TenantSpec("a"))
        b = reg.admit(TenantSpec("b"))
        assert a.shared is shared and b.shared is shared
        assert a.namespace != b.namespace


class TestEviction:
    def test_evicted_slice_is_reused_first_fit(self):
        reg = registry()
        reg.admit(TenantSpec("a", quota=4))
        reg.admit(TenantSpec("b", quota=2))
        before = reg.remaining_slots
        reg.evict("a")
        assert "a" not in reg
        assert reg.remaining_slots == before + 4
        # A smaller tenant lands inside the freed slice.
        c = reg.admit(TenantSpec("c", quota=3))
        assert c.namespace.base == 1
        # The remainder of the slice is still carvable.
        d = reg.admit(TenantSpec("d", quota=1))
        assert d.namespace.base == 4

    def test_evict_unknown_rejected(self):
        with pytest.raises(ConfigError, match="not admitted"):
            registry().evict("ghost")

    def test_lookups(self):
        reg = registry()
        context = reg.admit(TenantSpec("a"))
        assert reg.get("a") is context
        assert "a" in reg and len(reg) == 1
        assert reg.names == ["a"]
        assert reg.contexts() == [context]
        with pytest.raises(ConfigError):
            reg.get("ghost")

    def test_report_shows_partition(self):
        reg = registry()
        reg.admit(TenantSpec("a", quota=4))
        report = reg.report()
        assert report["max_mappings"] == 256
        assert report["tenants"]["a"] == {
            "tenant": "a",
            "base": 1,
            "capacity": 4,
        }

    def test_free_list_coalesces_adjacent_slices(self):
        reg = registry()
        for name, quota in (("a", 2), ("b", 2), ("c", 2), ("d", 2)):
            reg.admit(TenantSpec(name, quota=quota))
        # Release two adjacent holes out of order: they must merge so a
        # larger tenant can land in the combined range.
        reg.evict("c")
        reg.evict("b")
        e = reg.admit(TenantSpec("e", quota=4))
        assert e.namespace.base == 3
        assert reg.check_invariants() == []

    def test_tail_release_folds_into_bump_frontier(self):
        reg = registry(max_mappings=8)
        reg.admit(TenantSpec("a", quota=3))
        reg.admit(TenantSpec("b", quota=4))
        reg.evict("b")  # tail slice: folds back into the bump allocator
        reg.evict("a")
        c = reg.admit(TenantSpec("c", quota=7))
        assert c.namespace.base == 1
        assert reg.check_invariants() == []


#: A churn program: (action, tenant index, quota).
_churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "evict"]),
        st.integers(min_value=0, max_value=399),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1,
    max_size=250,
)


class TestChurnProperties:
    """Hundreds of tenants through admit/evict: the laws never break."""

    @given(_churn_ops)
    @settings(max_examples=40, deadline=None)
    def test_budget_laws_hold_under_churn(self, ops):
        reg = registry()
        occupied: set[str] = set()
        for action, index, quota in ops:
            name = f"t{index}"
            if action == "admit" and name not in occupied:
                try:
                    reg.admit(TenantSpec(name, quota=quota))
                except CMTError:
                    assert name not in reg  # failure reserved nothing
                    continue
                occupied.add(name)
            elif action == "evict" and name in occupied:
                reg.evict(name)
                occupied.discard(name)
            else:
                continue
            assert reg.check_invariants() == []
            carved = sum(
                context.namespace.capacity for context in reg.contexts()
            )
            assert carved <= reg.max_mappings - 1  # slot 0 reserved
            assert set(reg.names) == occupied
            assert 0 <= reg.remaining_slots <= reg.max_mappings - 1

    @given(_churn_ops)
    @settings(max_examples=15, deadline=None)
    def test_first_fit_reuses_lowest_feasible_hole(self, ops):
        """After any churn, a 1-slot admission lands on the lowest
        base no live namespace covers (first-fit over the coalesced
        free list, then the bump frontier)."""
        reg = registry()
        for action, index, quota in ops:
            name = f"t{index}"
            try:
                if action == "admit" and name not in reg:
                    reg.admit(TenantSpec(name, quota=quota))
                elif action == "evict" and name in reg:
                    reg.evict(name)
            except CMTError:
                continue
        taken = set()
        for context in reg.contexts():
            ns = context.namespace
            taken.update(range(ns.base, ns.end))
        expected = next(
            base for base in range(1, reg.max_mappings) if base not in taken
        )
        probe = reg.admit(TenantSpec("probe", quota=1))
        assert probe.namespace.base == expected
