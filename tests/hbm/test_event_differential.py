"""The flat-list event loop against the per-object loop it replaced.

:class:`tests.hbm.event_oracle.EventLoopBaseline` keeps the event
tier's earlier loop (one ``Channel`` and ``Bank`` object each, one
``ChannelRequest`` per request).  :class:`~repro.hbm.device.HBMDevice`
must give the same :class:`~repro.hbm.stats.RunStats`, bit for bit, on
any stream: every window, every in-flight limit, with or without
ECC-retry flags, and on uniform random traffic decoded through each
mapping family.  Block sizes around the in-flight limit, and streams
several blocks long, check the requests a block leaves queued, which
the event loop carries into the next block's lists, and one
``tracemalloc`` test checks that a long stream is never held whole as
Python lists.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.config import hbm2_config
from repro.hbm.decode import DecodedTrace, decode_translated
from repro.hbm import device
from repro.hbm.device import BLOCK_REQUESTS, HBMDevice
from tests.hbm.event_oracle import EventLoopBaseline
from tests.system.test_fused_equivalence import _random_trace, _translators

CONFIG = hbm2_config()


def stream(channel, bank, row) -> DecodedTrace:
    channel = np.asarray(channel, dtype=np.int64)
    bank = np.asarray(bank, dtype=np.int64)
    return DecodedTrace(
        channel=channel,
        bank=bank,
        row=np.asarray(row, dtype=np.int64),
        column=np.zeros(channel.size, dtype=np.int64),
        global_bank=channel * CONFIG.banks_per_channel + bank,
    )


def assert_same(trace, window, inflight, forced=None):
    """Both loops on one input."""
    new = HBMDevice(CONFIG, max_inflight=inflight, frfcfs_window=window)
    old = EventLoopBaseline(
        CONFIG, max_inflight=inflight, frfcfs_window=window
    )
    expected = old.simulate_decoded(trace, forced)
    got = new.simulate_decoded(trace, forced)
    assert got.to_dict() == expected.to_dict()
    return got


@st.composite
def streams(draw):
    """Up to 1,500 random requests over a drawn few channels, banks and
    rows.

    Few channels and banks make long queues, so the FR-FCFS lookahead
    and its not-yet-arrived cut-off are exercised; few rows make row
    hits and conflicts common.
    """
    n = draw(st.integers(0, 1500))
    channels = draw(st.sampled_from([1, 2, 3, CONFIG.num_channels]))
    banks = draw(st.sampled_from([1, 2, 4, CONFIG.banks_per_channel]))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return stream(
        rng.integers(0, channels, n),
        rng.integers(0, banks, n),
        rng.integers(0, rows, n),
    )


windows = st.integers(1, 32)
inflights = st.integers(1, 256)


@settings(max_examples=100, deadline=None)
@given(trace=streams(), window=windows, inflight=inflights, data=st.data())
def test_whole_stream_matches_baseline(trace, window, inflight, data):
    share = data.draw(st.none() | st.sampled_from([0.05, 0.3, 1.0]))
    forced = None
    if share is not None:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        forced = rng.random(len(trace)) < share
    assert_same(trace, window, inflight, forced=forced)


@pytest.mark.parametrize("inflight", [1, 64])
def test_empty_stream(inflight):
    stats = assert_same(stream([], [], []), 8, inflight)
    assert stats.requests == 0
    assert stats.per_channel_requests.shape == (CONFIG.num_channels,)


@pytest.mark.parametrize("window", [1, 3, 8, 32])
@pytest.mark.parametrize("inflight", [1, 5, 256])
def test_one_channel_one_bank(window, inflight):
    """Every request queues behind the same bank and the same bus."""
    n = 400
    row = (np.arange(n) * 7 // 3) % 3
    stats = assert_same(
        stream(np.full(n, 6), np.full(n, 2), row), window, inflight
    )
    assert stats.per_channel_requests[6] == n


@pytest.mark.parametrize("window", [1, 8])
@pytest.mark.parametrize("inflight", [3, 16, 40])
def test_equal_start_estimates_break_ties_by_channel(window, inflight):
    """Many channels start at the same instant; the lowest index goes
    first, which orders completions and so later admission times."""
    n = 32 * 12
    channel = np.arange(n) % CONFIG.num_channels
    bank = (np.arange(n) // CONFIG.num_channels) % 2
    row = (np.arange(n) // 64) % 2
    forced = np.arange(n) % 5 == 0
    assert_same(stream(channel, bank, row), window, inflight, forced=forced)


@pytest.mark.parametrize(
    "reentry, pending, makespan", [(1, 2, 135.0), (5, 2, 100.0)]
)
def test_reentry_ties_with_pending_start_break_by_channel(
    reentry, pending, makespan
):
    """A channel drains, then re-enters the schedule at the latest
    completion, which is also another channel's pending start.

    In-flight 3, misses 45 ns, bursts 10 ns.  ``reentry`` (one request)
    and ``pending`` (two, in different banks) are admitted at 0 and
    each issues one miss done at 45, so ``pending`` waits at start 45;
    ``reentry`` drains and is re-admitted at 45 with a row miss done at
    90, and channel 9 is admitted at 45 too.  The lower of the two tied
    channels issues first, and its completion (90 for ``reentry``, 55
    for ``pending``) is when channel 0's request is admitted.
    """
    channel = [reentry, pending, pending, 9, reentry, 0]
    bank = [0, 0, 1, 0, 0, 0]
    row = [0, 0, 0, 0, 1, 0]
    stats = assert_same(stream(channel, bank, row), 8, 3)
    assert stats.makespan_ns == makespan


@pytest.mark.parametrize("name", ["identity", "hash", "bsm", "sdam_multi"])
def test_translated_traffic_matches_baseline(name):
    """Uniform random lines through each mapping family the systems
    use: the channel and bank spread real translated traffic has, at
    in-order issue up to the widest window and in-flight limit."""
    translator = dict(_translators())[name]
    decoded = decode_translated(_random_trace(8192, seed=0), translator, CONFIG)
    for inflight in (1, 64, 256):
        for window in (1, 8, 16):
            stats = assert_same(decoded, window, inflight)
            assert stats.requests == 8192


def skewed_stream(n: int = 3000, seed: int = 11) -> DecodedTrace:
    """A quarter of the requests on channel 0 (as BS+DM's copies put
    them on one channel), the rest spread; four banks and four rows, so
    queues run deep and lookahead hits are common."""
    rng = np.random.default_rng(seed)
    channel = np.where(
        rng.random(n) < 0.25, 0, rng.integers(0, CONFIG.num_channels, n)
    )
    return stream(channel, rng.integers(0, 4, n), rng.integers(0, 4, n))


@pytest.mark.parametrize("inflight", [1, 64, 255, 256, 257])
def test_block_carry_over_matches_baseline(inflight):
    """Every block ends with up to ``inflight`` requests still queued,
    which the loop re-indexes into the next block's lists; a stream
    of three blocks and a partial one crosses three such ends."""
    trace = skewed_stream(3 * BLOCK_REQUESTS + 123)
    for window in (1, 8):
        stats = assert_same(trace, window, inflight)
        assert stats.requests == len(trace)


CARRY_CASES = [
    (inflight, size)
    for inflight in (1, 64, 256)
    for size in sorted({1, inflight - 1, inflight, inflight + 1} - {0})
]


@pytest.mark.parametrize("inflight, size", CARRY_CASES)
def test_chunks_around_inflight_limit_match_baseline(
    inflight, size, monkeypatch
):
    """Blocks of ``size`` requests each end with up to ``inflight``
    requests still queued: blocks of one request, and of one less,
    exactly and one more than the in-flight limit, so the fill phase
    ends inside, at the end of and just past the first block."""
    monkeypatch.setattr(device, "BLOCK_REQUESTS", size)
    trace = skewed_stream()
    for window in (1, 8):
        stats = assert_same(trace, window, inflight)
        assert stats.requests == len(trace)


@pytest.mark.parametrize(
    "inflight",
    [BLOCK_REQUESTS - 1, BLOCK_REQUESTS, BLOCK_REQUESTS + 1, 10 * BLOCK_REQUESTS],
)
def test_inflight_around_block_size_matches_baseline(inflight):
    """An in-flight limit near or above the loop's block size: the
    first issue comes in a later block, after whole blocks were only
    admitted."""
    trace = skewed_stream(3 * BLOCK_REQUESTS + 123)
    assert_same(trace, 8, inflight)


def test_long_stream_memory_stays_bounded():
    """A 200,000-request trace is never held whole as Python lists.

    The loop this one replaced (a tuple per admitted request) peaked at
    0.13 MB on this stream fed in 4,096-request pieces.  This loop peaks
    at 0.32 MB on the whole trace under CPython 3.11 on x86-64 (one
    block of Python lists).  The bound, 0.5 MB, leaves it a 1.5x
    margin; the whole stream as lists would take about 13 MB.
    """
    n = 200_000
    rng = np.random.default_rng(0)
    trace = stream(
        rng.integers(0, CONFIG.num_channels, n),
        rng.integers(0, CONFIG.banks_per_channel, n),
        rng.integers(0, 64, n),
    )
    device = HBMDevice(CONFIG, max_inflight=256)
    tracemalloc.start()
    try:
        stats = device.simulate_decoded(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.requests == n
    assert peak < 0.5e6
