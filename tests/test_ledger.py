"""Merge laws of every run ledger, checked once over all four.

Each ledger derives ``empty``, ``merge``, ``+``, ``==``, ``to_dict``,
``from_dict`` and ``fold`` from its field declarations
(:mod:`repro.ledger`).  The laws, over hypothesis-drawn instances:

* identity — ``empty()`` (with the operand's key fields) is a
  two-sided identity;
* associativity and commutativity — any reduction order gives the same
  ledger;
* the law of each field's merge kind;
* ``from_dict(to_dict())`` and a JSON round trip give the ledger back;
* ``+`` with a foreign type returns ``NotImplemented``.

Nanosecond and second fields are drawn as integer-valued floats: the
laws are about the merge structure, not float associativity.
"""

import json
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.stats import RemapTraffic, RunStats
from repro.system.runner import StageMetrics
from repro.tier.stats import TierTraffic

counters = st.integers(min_value=0, max_value=10_000)
whole = st.integers(min_value=0, max_value=10**9).map(float)
CHANNELS = 4


def _channel_array(values, dtype):
    return st.lists(values, min_size=CHANNELS, max_size=CHANNELS).map(
        lambda xs: np.array(xs, dtype=dtype)
    )


def _counters_of(cls, **overrides):
    """``cls`` with every int field a counter and float field a total."""
    draws = {
        f.name: whole if f.type in ("float", float) else counters
        for f in fields(cls)
    }
    draws.update(overrides)
    return st.builds(cls, **draws)


STRATEGIES = {
    RunStats: _counters_of(
        RunStats,
        num_channels=st.just(CHANNELS),
        per_channel_requests=_channel_array(counters, np.int64),
        per_channel_busy_ns=_channel_array(whole, np.float64),
    ),
    RemapTraffic: _counters_of(RemapTraffic),
    TierTraffic: _counters_of(TierTraffic),
    StageMetrics: _counters_of(StageMetrics, stage=st.just("evaluate")),
}
LEDGERS = list(STRATEGIES)
KINDS = {"sum", "max", "key"}


def _ids(cls):
    return cls.__name__


def _kind(f):
    return f.metadata["merge"]


def _identity_for(a):
    """``empty()`` sharing ``a``'s key fields."""
    keys = {
        f.name: getattr(a, f.name) for f in fields(a) if _kind(f) == "key"
    }
    return type(a).empty(**keys)


def _pair_of(cls):
    return st.tuples(STRATEGIES[cls], STRATEGIES[cls])


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
def test_every_field_declares_a_known_kind(cls):
    assert all(_kind(f) in KINDS for f in fields(cls))


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
def test_plumbing_is_derived_not_hand_written(cls):
    for name in ("empty", "merge", "__add__", "__eq__", "to_dict",
                 "from_dict", "fold"):
        assert name not in vars(cls), f"{cls.__name__} defines {name}"


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_identity(cls, data):
    a = data.draw(STRATEGIES[cls])
    empty = _identity_for(a)
    assert a.merge(empty) == a
    assert empty.merge(a) == a


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_associative(cls, data):
    a, b, c = (data.draw(STRATEGIES[cls]) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_commutative(cls, data):
    a, b = data.draw(_pair_of(cls))
    assert a + b == b + a


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_field_obeys_its_kind(cls, data):
    a, b = data.draw(_pair_of(cls))
    before = (a.to_dict(), b.to_dict())
    merged = a.merge(b)
    for f in fields(cls):
        x, y, m = (getattr(v, f.name) for v in (a, b, merged))
        kind = _kind(f)
        if kind == "sum":
            assert np.array_equal(m, np.add(x, y))
        elif kind == "max":
            assert m == max(x, y)
        else:  # key: the operands agree
            assert m == x
    assert (a.to_dict(), b.to_dict()) == before


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip(cls, data):
    a = data.draw(STRATEGIES[cls])
    assert cls.from_dict(a.to_dict()) == a
    assert cls.from_dict(json.loads(json.dumps(a.to_dict()))) == a


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fold_is_a_left_reduction(cls, data):
    parts = data.draw(st.lists(STRATEGIES[cls], min_size=1, max_size=4))
    assert cls.fold(parts) == reduce(lambda x, y: x.merge(y), parts)
    assert cls.fold([None, *parts, None]) == cls.fold(parts)


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
def test_fold_of_nothing_is_none(cls):
    assert cls.fold([]) is None
    assert cls.fold([None]) is None


@pytest.mark.parametrize("cls", LEDGERS, ids=_ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_foreign_add_is_not_implemented(cls, data):
    a = data.draw(STRATEGIES[cls])
    other = RemapTraffic() if cls is not RemapTraffic else TierTraffic()
    for foreign in (42, "ledger", None, other):
        assert a.__add__(foreign) is NotImplemented
    with pytest.raises(TypeError):
        a + 1


@pytest.mark.parametrize(
    "a, b, what",
    [
        (RunStats.empty(8), RunStats.empty(16), "channel counts"),
        (StageMetrics("profile"), StageMetrics("evaluate"), "stages"),
    ],
)
def test_key_fields_must_agree(a, b, what):
    with pytest.raises(ValueError, match=what):
        a.merge(b)


class TestRunStatsEquality:
    def test_equal_stats_compare_equal(self):
        assert RunStats.empty(4) == RunStats.empty(4)
        assert RunStats.empty(num_channels=4) == RunStats.empty(4)

    def test_arrays_compare_by_content(self):
        a = RunStats.empty(4)
        assert a == replace(a, per_channel_busy_ns=np.zeros(4, np.float32))
        assert a != replace(a, per_channel_requests=np.array([0, 1, 0, 0]))
        assert a != RunStats.empty(8)
        assert a != "stats"
