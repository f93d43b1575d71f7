"""Merge laws for the mutable bookkeeping types, as properties.

:class:`~repro.hbm.stats.RunStats` already has example-based merge-law
tests (``tests/hbm/test_vectormodel.py::TestMergeLaws``); the service
layer now also reduces :class:`~repro.hbm.stats.BackendHealth` and
:class:`~repro.hbm.stats.RemapTraffic` across per-tenant runs, so their
laws get the hypothesis treatment:

* identity — merging with a fresh/empty instance changes nothing;
* associativity — any reduction order gives the same journal;
* counter conservation — merged counters are exactly the sums (for
  ``BackendHealth``, the merged journal is exactly the concatenation).

``BackendHealth.merge`` is deliberately *not* commutative (it models
*sequential* runs: ``demoted_to``/``guard`` take the latest value and
``degradations`` keep arrival order), so no commutativity law is
claimed for it.  ``RemapTraffic`` is all-adding and therefore also
commutative.

Nanosecond fields are drawn as integer-valued floats: the laws under
test are about the merge structure, not about float addition being
associative (it is not).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.stats import BackendHealth, RemapTraffic

counters = st.integers(min_value=0, max_value=10_000)
whole_ns = st.integers(min_value=0, max_value=10**9).map(float)

degradation_entries = st.lists(
    st.fixed_dictionaries(
        {
            "event": st.just("tier-demoted"),
            "reason": st.sampled_from(["injected", "diverged"]),
        }
    ),
    max_size=4,
)

backend_healths = st.builds(
    BackendHealth,
    backend=st.just("vector"),
    demoted_to=st.none() | st.sampled_from(["event", "tiered:event"]),
    degradations=degradation_entries,
    guard=st.none()
    | st.fixed_dictionaries({"diverged": st.booleans()}),
)

remap_traffics = st.builds(
    RemapTraffic,
    remaps=counters,
    failed_remaps=counters,
    rollback_migrations=counters,
    chunks_migrated=counters,
    lines_copied=counters,
    bytes_moved=counters,
    migration_ns=whole_ns,
    cmt_writes=counters,
    amu_reprograms=counters,
    reprogram_ns=whole_ns,
)

_TRAFFIC_COUNTERS = (
    "remaps",
    "failed_remaps",
    "rollback_migrations",
    "chunks_migrated",
    "lines_copied",
    "bytes_moved",
    "migration_ns",
    "cmt_writes",
    "amu_reprograms",
    "reprogram_ns",
)


class TestBackendHealthMergeLaws:
    @settings(max_examples=60, deadline=None)
    @given(a=backend_healths)
    def test_identity(self, a):
        empty = BackendHealth(backend=a.backend)
        assert a.merge(empty).to_dict() == a.to_dict()
        assert empty.merge(a).to_dict() == a.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(a=backend_healths, b=backend_healths, c=backend_healths)
    def test_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(a=backend_healths, b=backend_healths)
    def test_counter_conservation(self, a, b):
        merged = a.merge(b)
        assert merged.degradations == a.degradations + b.degradations

    @settings(max_examples=60, deadline=None)
    @given(a=backend_healths, b=backend_healths)
    def test_merge_leaves_operands_untouched(self, a, b):
        before_a, before_b = a.to_dict(), b.to_dict()
        a.merge(b)
        assert a.to_dict() == before_a
        assert b.to_dict() == before_b

    @settings(max_examples=60, deadline=None)
    @given(a=backend_healths, b=backend_healths)
    def test_latest_run_wins_sequential_fields(self, a, b):
        merged = a.merge(b)
        assert merged.demoted_to == (b.demoted_to or a.demoted_to)
        assert merged.guard == (b.guard if b.guard is not None else a.guard)


class TestRemapTrafficMergeLaws:
    @settings(max_examples=60, deadline=None)
    @given(a=remap_traffics)
    def test_identity(self, a):
        assert a.merge(RemapTraffic()).to_dict() == a.to_dict()
        assert RemapTraffic().merge(a).to_dict() == a.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(a=remap_traffics, b=remap_traffics, c=remap_traffics)
    def test_associative(self, a, b, c):
        assert (a + b + c).to_dict() == a.merge(b.merge(c)).to_dict()

    @settings(max_examples=60, deadline=None)
    @given(a=remap_traffics, b=remap_traffics)
    def test_commutative(self, a, b):
        assert a.merge(b).to_dict() == b.merge(a).to_dict()

    @settings(max_examples=60, deadline=None)
    @given(a=remap_traffics, b=remap_traffics)
    def test_counter_conservation(self, a, b):
        merged = a.merge(b)
        for name in _TRAFFIC_COUNTERS:
            assert getattr(merged, name) == getattr(a, name) + getattr(
                b, name
            )
        assert merged.overhead_ns == merged.migration_ns + merged.reprogram_ns
