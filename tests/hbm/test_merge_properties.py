"""Merge laws for the remap-traffic ledger, as properties.

:class:`~repro.hbm.stats.RunStats` already has example-based merge-law
tests (``tests/hbm/test_vectormodel.py::TestMergeLaws``);
:class:`~repro.hbm.stats.RemapTraffic` folds the adaptive controller's
live-remap accounting, so its laws get the hypothesis treatment:

* identity — merging with a fresh/empty instance changes nothing;
* associativity and commutativity — any reduction order gives the
  same counters;
* counter conservation — merged counters are exactly the sums.

Nanosecond fields are drawn as integer-valued floats: the laws under
test are about the merge structure, not about float addition being
associative (it is not).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.stats import RemapTraffic

counters = st.integers(min_value=0, max_value=10_000)
whole_ns = st.integers(min_value=0, max_value=10**9).map(float)

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
