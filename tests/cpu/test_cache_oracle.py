"""Differential tests: the offline LRU filter against the per-access oracle.

``tests/cpu/lru_oracle.py`` holds the dict-per-set LRU the filter
replaced.  Every external stream (addresses, write flags, variable tags,
order) and every counter must match it exactly.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cpu.cache as cache_module
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace
from tests.cpu.lru_oracle import DictLRU, oracle_external_trace

KiB = 1024


def counters(stats) -> tuple:
    return stats.accesses, stats.hits, stats.misses, stats.writebacks


def assert_same_stream(got: AccessTrace, want: AccessTrace) -> None:
    assert got.va.tolist() == want.va.tolist()
    assert got.is_write.tolist() == want.is_write.tolist()
    assert got.variable.tolist() == want.variable.tolist()


def assert_matches_oracle(trace: AccessTrace, ways: int, sets: int) -> None:
    size = 64 * ways * sets
    cache = SetAssociativeCache(size, line_bytes=64, ways=ways)
    oracle = DictLRU(size, line_bytes=64, ways=ways)
    assert_same_stream(cache.filter_trace(trace), oracle.filter_trace(trace))
    assert counters(cache.stats) == counters(oracle.stats)


def random_trace(rng, accesses: int, lines: int, write_ratio: float) -> AccessTrace:
    va = rng.integers(0, lines, accesses).astype(np.uint64) * np.uint64(64)
    va += rng.integers(0, 64, accesses).astype(np.uint64)
    return AccessTrace(
        va=va,
        is_write=rng.random(accesses) < write_ratio,
        variable=rng.integers(-1, 6, accesses),
    )


@given(
    ways=st.integers(1, 16),
    sets=st.integers(1, 64),
    lines=st.integers(1, 256),
    accesses=st.integers(0, 400),
    write_ratio=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_random_traces_match_oracle(ways, sets, lines, accesses, write_ratio, seed):
    rng = np.random.default_rng(seed)
    assert_matches_oracle(random_trace(rng, accesses, lines, write_ratio), ways, sets)


def test_empty_trace():
    cache = SetAssociativeCache(4 * KiB, ways=4)
    out = cache.filter_trace(AccessTrace(va=np.zeros(0, dtype=np.uint64)))
    assert len(out) == 0
    assert counters(cache.stats) == (0, 0, 0, 0)
    outs = cache.filter_traces([])
    assert outs == []


@pytest.mark.parametrize("slab, walk", [(97, 128), (1 << 16, 3), (50, 1)])
def test_many_slabs_and_jumps_match_oracle(monkeypatch, slab, walk):
    """Small slabs and short single-step walks exercise every cut."""
    monkeypatch.setattr(cache_module, "SLAB_ACCESSES", slab)
    monkeypatch.setattr(cache_module, "WALK_STEPS", walk)
    rng = np.random.default_rng(slab + walk)
    for ways, sets in [(1, 1), (4, 8), (8, 64), (16, 3)]:
        trace = random_trace(rng, 3_000, lines=40 * sets, write_ratio=0.3)
        assert_matches_oracle(trace, ways, sets)


def test_trace_longer_than_one_slab_matches_oracle():
    rng = np.random.default_rng(7)
    accesses = 2 * cache_module.SLAB_ACCESSES + 123
    assert_matches_oracle(random_trace(rng, accesses, 3_000, 0.4), ways=8, sets=32)


@pytest.mark.parametrize("threads, cores", [(4, 2), (5, 2), (3, 1), (2, 4)])
def test_cpu_model_matches_oracle(threads, cores):
    rng = np.random.default_rng(threads * 10 + cores)
    cpu = CPUModel(cores=cores, l1_bytes=4 * KiB, llc_bytes=64 * KiB)
    traces = [
        random_trace(rng, 2_000 + 500 * t, lines=600, write_ratio=0.3)
        for t in range(threads)
    ]
    result = cpu.external_trace(traces)
    external, l1s, llc = oracle_external_trace(cpu, traces)
    assert_same_stream(result.trace, external)
    hits = sum(c.stats.hits for c in l1s)
    accesses = sum(c.stats.accesses for c in l1s)
    assert result.l1_hit_rate == hits / accesses
    assert result.llc_hit_rate == llc.stats.hit_rate


def adversarial_trace(ways: int, rounds: int) -> AccessTrace:
    """``ways - 1`` hot lines hammered between far-apart touches of line 0.

    Line 0 stays resident, so each of its later accesses hits only after
    a walk over the whole hammered span: the worst case for a walk.
    """
    hot = np.tile(np.arange(1, ways, dtype=np.uint64) * np.uint64(64), rounds)
    va = np.concatenate([[0], hot, [0], hot, [64 * ways], [0]]).astype(np.uint64)
    return AccessTrace(va=va, is_write=np.arange(va.size) % 3 == 0)


def best_of(runs: int, call) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("ways", [2, 4, 16])
def test_adversarial_trace_is_exact_and_not_slower(ways):
    trace = adversarial_trace(ways, rounds=60_000 // ways)
    assert_matches_oracle(trace, ways, sets=1)
    size = 64 * ways
    offline = best_of(
        3, lambda: SetAssociativeCache(size, ways=ways).filter_trace(trace)
    )
    oracle = best_of(3, lambda: DictLRU(size, ways=ways).filter_trace(trace))
    assert offline <= oracle
