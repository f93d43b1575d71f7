"""Merge laws for :class:`~repro.tier.stats.TierTraffic`, as properties.

The same treatment :class:`~repro.hbm.stats.RemapTraffic` gets in
``tests/hbm/test_merge_properties.py``: identity, associativity,
commutativity, and exact counter conservation, over hypothesis-drawn
instances.  Nanosecond fields are drawn as integer-valued floats so the
laws are about the merge structure, not float associativity.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tier.stats import TierTraffic

_FIELDS = tuple(f.name for f in fields(TierTraffic))

counters = st.integers(min_value=0, max_value=10_000)
whole_ns = st.integers(min_value=0, max_value=10**9).map(float)


def _field_strategy(name):
    return whole_ns if name.endswith("_ns") else counters


traffics = st.builds(
    TierTraffic, **{name: _field_strategy(name) for name in _FIELDS}
)


class TestMergeLaws:
    @given(traffics)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, t):
        assert t.merge(TierTraffic.empty()) == t
        assert TierTraffic.empty().merge(t) == t

    @given(traffics, traffics)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(traffics, traffics, traffics)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(traffics, traffics)
    @settings(max_examples=40, deadline=None)
    def test_counter_conservation(self, a, b):
        merged = a + b
        for name in _FIELDS:
            assert getattr(merged, name) == getattr(a, name) + getattr(
                b, name
            )

    @given(traffics)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, t):
        assert TierTraffic.from_dict(t.to_dict()) == t

    def test_foreign_add_not_implemented(self):
        assert TierTraffic().__add__(42) is NotImplemented
        assert TierTraffic().__add__("traffic") is NotImplemented


class TestDerived:
    def test_fractions_empty(self):
        t = TierTraffic()
        assert t.fast_fraction == 0.0
        assert t.trans_hit_rate == 0.0
        assert t.accesses == 0

    def test_derived_values(self):
        t = TierTraffic(
            fast_accesses=3,
            slow_accesses=1,
            promotions=2,
            demotions=1,
            swap_ns=5.0,
            trans_ns=7.0,
            trans_lookups=4,
            trans_hits=1,
        )
        assert t.accesses == 4
        assert t.fast_fraction == 0.75
        assert t.swaps == 3
        assert t.overhead_ns == 12.0
        assert t.trans_hit_rate == 0.25
        assert "75% fast" in t.summary()
