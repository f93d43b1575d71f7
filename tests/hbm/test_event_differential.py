"""The flat-list event loop against the per-object loop it replaced.

:class:`tests.hbm.event_oracle.EventLoopBaseline` keeps the event
tier's earlier loop (one ``Channel`` and ``Bank`` object each, one
``ChannelRequest`` per request).  :class:`~repro.hbm.device.HBMDevice`
must give the same :class:`~repro.hbm.stats.RunStats`, bit for bit, on
any stream: every window, every in-flight limit, whole or chunked,
with or without ECC-retry flags, and on uniform random traffic decoded
through each mapping family.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.config import hbm2_config
from repro.hbm.decode import DecodedTrace, decode_translated
from repro.hbm.device import HBMDevice
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


def cut(trace: DecodedTrace, points) -> list[DecodedTrace]:
    """Split a trace at the given positions (empty pieces included)."""
    bounds = [0, *sorted(points), len(trace)]
    return [
        DecodedTrace(
            channel=trace.channel[lo:hi],
            bank=trace.bank[lo:hi],
            row=trace.row[lo:hi],
            column=trace.column[lo:hi],
            global_bank=trace.global_bank[lo:hi],
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def assert_same(trace, window, inflight, forced=None, points=None):
    """Both loops on one input, whole or cut at ``points``."""
    new = HBMDevice(CONFIG, max_inflight=inflight, frfcfs_window=window)
    old = EventLoopBaseline(
        CONFIG, max_inflight=inflight, frfcfs_window=window
    )
    if points is None:
        expected = old.simulate_decoded(trace, forced)
        got = new.simulate_decoded(trace, forced)
    else:
        expected = old.simulate_decoded(iter(cut(trace, points)))
        got = new.simulate_decoded(iter(cut(trace, points)))
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


@settings(max_examples=100, deadline=None)
@given(trace=streams(), window=windows, inflight=inflights, data=st.data())
def test_chunked_stream_matches_baseline(trace, window, inflight, data):
    points = data.draw(st.lists(st.integers(0, len(trace)), max_size=6))
    assert_same(trace, window, inflight, points=points)


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
