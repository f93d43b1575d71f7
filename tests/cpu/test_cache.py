"""Tests for the set-associative write-back cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError

KiB = 1024


def make_cache(size=4 * KiB, ways=4) -> SetAssociativeCache:
    return SetAssociativeCache(size, line_bytes=64, ways=ways)


def run(cache, addresses, writes=None, variables=None) -> AccessTrace:
    """Filter a short stream of byte addresses through ``cache``."""
    return cache.filter_trace(
        AccessTrace(
            va=np.array(addresses, dtype=np.uint64),
            is_write=writes,
            variable=variables,
        )
    )


class TestAccess:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        out = run(cache, [0x1000, 0x1000])
        assert out.va.tolist() == [0x1000]
        assert cache.stats.hits == 1

    def test_same_line_different_bytes_hit(self):
        cache = make_cache()
        out = run(cache, [0x1000, 0x103F])
        assert out.va.tolist() == [0x1000]
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = make_cache(size=64 * 4, ways=4)  # one set, 4 ways
        # Fill, refresh line 0, then line 4 evicts the LRU line 1:
        # line 0 still hits, line 1 misses.
        out = run(cache, [0, 64, 128, 192, 0, 256, 0, 64])
        assert out.va.tolist() == [0, 64, 128, 192, 256, 64]

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=64 * 2, ways=2)
        out = run(cache, [0, 64, 128])
        assert out.va.tolist() == [0, 64, 128]
        assert cache.stats.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        cache = make_cache(size=64 * 2, ways=2)
        out = run(cache, [0, 64, 128], writes=[True, False, False])
        assert out.va.tolist() == [0, 64, 0, 128]
        assert out.is_write.tolist() == [True, False, True, False]
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=64 * 2, ways=2)
        out = run(cache, [0, 0, 64, 128], writes=[False, True, False, False])
        assert out.va.tolist() == [0, 64, 0, 128]
        assert out.is_write.tolist() == [False, False, True, False]

    def test_stats(self):
        cache = make_cache()
        run(cache, [0, 0])
        assert cache.stats.accesses == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_reset(self):
        """Every call starts from a cold cache and fresh counters."""
        cache = make_cache()
        run(cache, [0])
        out = run(cache, [0])
        assert out.va.tolist() == [0]
        assert cache.stats.accesses == 1
        assert cache.stats.hits == 0


class TestValidation:
    def test_bad_size(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(1000, line_bytes=64, ways=4)

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4 * KiB, line_bytes=48, ways=4)

    @pytest.mark.parametrize("ways", [0, -1])
    def test_ways_below_one_rejected(self, ways):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4 * KiB, line_bytes=64, ways=ways)

    @pytest.mark.parametrize("line_bytes", [0, -64])
    def test_line_below_one_byte_rejected(self, line_bytes):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4 * KiB, line_bytes=line_bytes, ways=4)


class TestFilterTrace:
    def test_working_set_smaller_than_cache_filters_repeats(self):
        cache = make_cache(size=8 * KiB)
        va = np.tile(np.arange(0, 1024, 64, dtype=np.uint64), 10)
        out = cache.filter_trace(AccessTrace(va=va))
        assert len(out) == 16  # only the cold misses escape

    def test_streaming_passes_through(self):
        cache = make_cache(size=4 * KiB)
        va = np.arange(0, 64 * KiB, 64, dtype=np.uint64)
        out = cache.filter_trace(AccessTrace(va=va))
        assert len(out) == va.size

    def test_variable_tags_preserved(self):
        cache = make_cache()
        trace = AccessTrace(
            va=np.array([0, 4096], dtype=np.uint64),
            variable=np.array([7, 9]),
        )
        out = cache.filter_trace(trace)
        assert out.variable.tolist() == [7, 9]

    def test_writebacks_are_writes(self):
        cache = make_cache(size=64 * 2, ways=2)
        trace = AccessTrace(
            va=np.array([0, 64, 128], dtype=np.uint64),
            is_write=np.array([True, False, False]),
            variable=np.array([7, 8, 9]),
        )
        out = cache.filter_trace(trace)
        # miss(0), miss(64), then the dirty line 0 goes out just before
        # miss(128), tagged with the evicting access's variable.
        assert out.va.tolist() == [0, 64, 0, 128]
        assert out.is_write.tolist() == [True, False, True, False]
        assert out.variable.tolist() == [7, 8, 9, 9]

    def test_traces_back_to_back_keep_the_cache_warm(self):
        cache = make_cache(size=64 * 2, ways=2)
        first = AccessTrace(va=np.array([0, 64], dtype=np.uint64))
        second = AccessTrace(va=np.array([0, 128], dtype=np.uint64))
        outs = cache.filter_traces([first, second])
        assert [o.va.tolist() for o in outs] == [[0, 64], [128]]
        assert cache.stats.accesses == 4
        assert cache.stats.hits == 1


@given(
    addresses=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300),
)
@settings(max_examples=40, deadline=None)
def test_miss_count_bounded_by_unique_lines_plus_capacity_effects(addresses):
    """Misses >= compulsory (unique lines); hits never exceed revisits."""
    cache = make_cache(size=2 * KiB)
    unique_lines = len({a >> 6 for a in addresses})
    run(cache, addresses)
    assert cache.stats.misses >= unique_lines
    assert cache.stats.hits <= len(addresses) - unique_lines
