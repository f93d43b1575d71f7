"""Closed-form timing laws of the event tier (and one of the fast tier).

Each law follows from the device DESIGN §3 describes and the timings
:class:`~repro.hbm.config.HBMConfig` declares: a row miss holds its
bank for ``t_miss = effective_t_row_miss_ns``, a row hit for
``t_burst = effective_t_burst_ns``, and every transfer takes one
``t_burst`` on its channel's data bus.  The expected makespan is
written down before the run, from the config alone, so a timing model
that breaks the declared geometry or timing fails here however well it
agrees with the other tiers.

The laws hold for every in-flight limit and FR-FCFS window unless
stated, and are checked over bank counts, row-miss costs and frequency
scales.  Every cost in the grid is a whole number of nanoseconds, so
the sums are exact in floating point and compared with ``==``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.device import HBMDevice
from repro.hbm.fastmodel import WindowModel

CONFIGS = [
    hbm2_config(banks_per_channel=banks, t_row_miss_ns=t_miss).scaled(scale)
    for banks, t_miss, scale in itertools.product(
        (8, 16), (30.0, 45.0, 90.0), (1.0, 0.5, 0.25)
    )
]
INFLIGHTS = (1, 3, 64, 255, 256)
WINDOWS = (1, 8)
#: Every (in-flight limit, window, request count) a law is run at.
RUNS = list(itertools.product(INFLIGHTS, WINDOWS, (1, 5, 300)))


def config_id(config: HBMConfig) -> str:
    return (
        f"b{config.banks_per_channel}-miss{config.t_row_miss_ns:g}"
        f"-x{config.frequency_scale:g}"
    )


def addresses(config: HBMConfig, channel, bank, row, column) -> np.ndarray:
    """Hardware addresses of the given fields in the config's layout."""
    layout = config.layout()
    ha = np.zeros(np.broadcast(channel, bank, row, column).shape, np.uint64)
    for name, value in (
        ("channel", channel),
        ("bank", bank),
        ("row", row),
        ("column", column),
    ):
        field = np.asarray(value, dtype=np.uint64)
        ha |= field << np.uint64(layout[name].shift)
    return ha


def columns(config: HBMConfig, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << config.column_bits, n)


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_one_row_costs_one_miss_then_bursts(config):
    """n requests to one (channel, bank, row): the first opens the row,
    every later one hits it, and each hit adds one burst to the bank
    and the bus alike."""
    t_burst = config.effective_t_burst_ns
    t_miss = config.effective_t_row_miss_ns
    for inflight, window, n in RUNS:
        ha = addresses(
            config, 5, config.banks_per_channel - 1, 77, columns(config, n, n)
        )
        device = HBMDevice(config, max_inflight=inflight, frfcfs_window=window)
        stats = device.simulate(ha)
        run = f"inflight={inflight} window={window} n={n}"
        assert stats.requests == n, run
        assert stats.row_hits == n - 1, run
        assert stats.row_misses == 1, run
        assert stats.makespan_ns == t_miss + (n - 1) * t_burst, run


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_fast_tier_reopens_one_row_at_every_batch(config):
    """The ``fast`` tier on the stream of the law above: n requests to
    one (channel, bank, row).  It decides row hits per batch of
    ``reorder_window`` requests and closes the row at every batch
    boundary, so each of the m = ⌈n / window⌉ batches opens it again:
    m misses and ``m·t_miss + (n − m)·t_burst``, where the event tier
    has one miss.  This pins the deviation (on ``hbm2_config()`` at
    window 8, n = 80 costs 1,150 ns here and 835 ns on the event tier),
    so a change to the batch rule shows."""
    t_burst = config.effective_t_burst_ns
    t_miss = config.effective_t_row_miss_ns
    for inflight, window, n in RUNS:
        ha = addresses(
            config, 5, config.banks_per_channel - 1, 77, columns(config, n, n)
        )
        model = WindowModel(config, max_inflight=inflight, reorder_window=window)
        stats = model.simulate(ha)
        m = -(-n // window)
        run = f"inflight={inflight} window={window} n={n}"
        assert stats.requests == n, run
        assert stats.row_misses == m, run
        assert stats.makespan_ns == m * t_miss + (n - m) * t_burst, run


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_distinct_rows_in_one_bank_serialise_misses(config):
    """n requests to one bank, each in a row of its own: every one is a
    miss, and the bank serves them back to back."""
    t_miss = config.effective_t_row_miss_ns
    for inflight, window, n in RUNS:
        rows = np.random.default_rng(n).permutation(config.rows_per_bank)[:n]
        ha = addresses(config, 17, 2, rows, columns(config, n, n))
        device = HBMDevice(config, max_inflight=inflight, frfcfs_window=window)
        stats = device.simulate(ha)
        run = f"inflight={inflight} window={window} n={n}"
        assert stats.requests == n, run
        assert stats.row_hits == 0, run
        assert stats.makespan_ns == n * t_miss, run


def expected_in_order(config: HBMConfig, channel, bank, row):
    """Hits and makespan of in-order service, one request at a time: a
    hit repeats its bank's previous row, and the next request starts
    when this one is done."""
    open_row: dict[tuple[int, int], int] = {}
    hits = 0
    for key, r in zip(zip(channel.tolist(), bank.tolist()), row.tolist()):
        hits += open_row.get(key) == r
        open_row[key] = r
    misses = len(row) - hits
    return hits, (
        hits * config.effective_t_burst_ns
        + misses * config.effective_t_row_miss_ns
    )


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("seed", [0, 1])
def test_one_in_flight_sums_the_service_costs(config, window, seed):
    """At ``max_inflight=1`` requests are served one at a time, in trace
    order, so the makespan is the sum of their bank costs: the bus is
    never the later of the two constraints."""
    rng = np.random.default_rng(seed)
    n = 2000
    channel = rng.integers(0, 3, n)
    bank = rng.integers(0, 3, n)
    row = rng.integers(0, 3, n)
    ha = addresses(config, channel, bank, row, columns(config, n, seed))
    device = HBMDevice(config, max_inflight=1, frfcfs_window=window)
    stats = device.simulate(ha)
    hits, makespan = expected_in_order(config, channel, bank, row)
    assert stats.requests == n
    assert stats.row_hits == hits
    assert stats.makespan_ns == makespan


def distinct_rows(config: HBMConfig, n: int) -> np.ndarray:
    """n different rows, so no request finds its row open: an odd step
    modulo the power-of-two row count repeats no row within n."""
    return (np.arange(n) * 7919 + 13) % config.rows_per_bank


def one_channel_makespan(config: HBMConfig, banks: int, n: int) -> float:
    """The makespan of n misses rotating over ``banks`` banks of one
    channel, each in a new row, with at least ``banks`` in flight (the
    law the next test derives)."""
    t_burst = config.effective_t_burst_ns
    t_miss = config.effective_t_row_miss_ns
    if banks * t_burst >= t_miss:
        return t_miss + (n - 1) * t_burst
    return -(-n // banks) * t_miss + ((n - 1) % banks) * t_burst


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_misses_rotating_over_banks_overlap_up_to_the_bus(config):
    """n misses on one channel, request i in bank ``i mod k`` of k, each
    in a new row.  A request finishes at ``done = max(bank_start +
    t_miss, bus_free + t_burst)`` and then holds both its bank and its
    channel's bus until ``done``.  While every one of the k banks has a
    request waiting (in-flight >= k), the last finish is the one the
    closed form gives:

    * ``k·t_burst >= t_miss``: the bus binds.  The first k start at 0
      and finish ``t_burst`` apart after the first miss; request i's
      bank was freed by request i − k at ``t_miss + (i−k)·t_burst``, at
      least ``t_miss`` before the bus frees, so every request finishes
      one burst after the one before: ``t_miss + (n−1)·t_burst``.
    * ``k·t_burst < t_miss``: the banks bind.  Request ``i = r·k + j``
      finishes at ``(r+1)·t_miss + j·t_burst``: its bank frees at
      ``r·t_miss + j·t_burst`` and the bus one burst after its
      predecessor, which is no later.  So the makespan is
      ``ceil(n/k)·t_miss + ((n−1) mod k)·t_burst``.

    A request is admitted at the latest finish so far, when request
    i − in-flight finishes, never after request i − k frees its bank;
    so admission never delays a start.  No request ever hits, so the
    FR-FCFS window changes nothing.
    """
    rng = np.random.default_rng(config.banks_per_channel)
    for k in range(1, config.banks_per_channel + 1):
        banks = rng.choice(config.banks_per_channel, k, replace=False)
        for inflight, window, n in RUNS:
            if inflight < k:
                continue
            ha = addresses(
                config,
                11,
                banks[np.arange(n) % k],
                distinct_rows(config, n),
                columns(config, n, n),
            )
            device = HBMDevice(
                config, max_inflight=inflight, frfcfs_window=window
            )
            stats = device.simulate(ha)
            expected = one_channel_makespan(config, k, n)
            run = f"k={k} inflight={inflight} window={window} n={n}"
            assert stats.requests == n, run
            assert stats.row_hits == 0, run
            assert stats.makespan_ns == expected, run


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_misses_rotating_over_channels_run_in_waves(config):
    """n misses, request i on channel ``i mod C`` of C, each in a new
    row of bank 0.  Channels share nothing, and on one channel every
    request waits for its one bank, which holds it ``t_miss >=
    t_burst``, longer than the bus does.

    At most ``w = min(m, C)`` requests run at once for an in-flight
    limit m: m of them while the window is the limit, C (one per
    channel) while the channels are.  Requests are admitted at the
    latest finish so far, and consecutive requests sit on different
    channels, so they run in waves of w that start together and finish
    ``t_miss`` later, each wave when the one before has finished:
    ``ceil(n / w)·t_miss``.  No request ever hits, so the FR-FCFS
    window changes nothing.
    """
    t_miss = config.effective_t_row_miss_ns
    rng = np.random.default_rng(config.banks_per_channel)
    for count in (1, 2, 3, 5, 8, 16, 31, config.num_channels):
        channels = rng.choice(config.num_channels, count, replace=False)
        for inflight, window, n in RUNS:
            ha = addresses(
                config,
                channels[np.arange(n) % count],
                0,
                distinct_rows(config, n),
                columns(config, n, n),
            )
            device = HBMDevice(
                config, max_inflight=inflight, frfcfs_window=window
            )
            stats = device.simulate(ha)
            wave = min(inflight, count)
            run = f"C={count} inflight={inflight} window={window} n={n}"
            assert stats.requests == n, run
            assert stats.row_hits == 0, run
            assert stats.makespan_ns == -(-n // wave) * t_miss, run


def capped_inflights(channels: int, banks: int) -> list[int]:
    """The in-flight limits the channel-and-bank law covers: every
    multiple ``C·j'`` with ``1 <= j' <= k``, and limits of ``C·k`` and
    beyond."""
    above = (channels * banks + 1, 255, 256)
    return sorted(
        {channels * j for j in range(1, banks + 1)}
        | {m for m in above if m >= channels * banks}
    )


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_misses_over_channels_and_banks_follow_the_one_channel_law(config):
    """n misses, request i on channel ``i mod C`` and bank ``(i div C)
    mod k``, each in a new row, under an in-flight limit m that is
    ``C·j'`` (``1 <= j' <= k``) or at least ``C·k``.  Let ``j = min(k,
    m div C)`` and ``N = ceil(n/C)``.  The makespan is the one-channel
    k-bank law at j banks on N requests, and no request hits.

    Channel c gets requests ``c, c+C, c+2C, ...``; its q-th request is
    on bank ``q mod k``.  The first m requests are admitted at 0, ``m
    div C`` of them on every channel when m is a multiple of C.  The
    channels share no bank and no bus, and each one's first requests
    start together, so every channel follows the same schedule: its
    q-th request finishes at a time ``T(q)`` that depends on q alone,
    and ``T`` increases, since every transfer follows the previous one
    on its bus.  The issue heap takes the channels in order within each
    q (ties go to the lowest channel), and every issue admits the next
    request in trace order, which lands on the channel that just
    issued: the trace rotates through the channels as the issues do.
    So each channel keeps ``m div C`` requests outstanding, and the one
    admitted after request q is issued arrives at the latest finish so
    far, ``T(q)``.

    * ``m = C·j'`` with ``j' <= k``: request ``q + j`` is admitted at
      ``T(q)``.  Its bank ``(q + j) mod k`` was last used by request
      ``q + j − k <= q``, which finished by ``T(q)``, so it starts at
      ``T(q)``: exactly when bank ``(q + j) mod j`` of a j-bank
      rotation, last used by request q, would be free.  The channel
      runs the j-bank rotation, with j in flight.
    * ``m >= C·k``: at least k requests per channel are outstanding, so
      request q is admitted no later than request ``q − k`` of its
      channel frees its bank, and admission never delays a start.  The
      channel runs the k-bank rotation, and ``j = k``.

    Channel 0 has the most requests, N, so the makespan is ``T(N−1)``:
    the one-channel law at j banks on N requests.  No request ever
    hits, so the FR-FCFS window changes nothing.
    """
    for channels, k in itertools.product(
        (2, 3, 4, 8), (1, 2, 3, 4, config.banks_per_channel)
    ):
        for inflight, window, n in itertools.product(
            capped_inflights(channels, k), WINDOWS, (1, 5, 37, 300)
        ):
            i = np.arange(n)
            ha = addresses(
                config,
                i % channels,
                (i // channels) % k,
                distinct_rows(config, n),
                columns(config, n, n),
            )
            device = HBMDevice(
                config, max_inflight=inflight, frfcfs_window=window
            )
            stats = device.simulate(ha)
            j = min(k, inflight // channels)
            expected = one_channel_makespan(config, j, -(-n // channels))
            run = (
                f"C={channels} k={k} inflight={inflight} window={window} n={n}"
            )
            assert stats.requests == n, run
            assert stats.row_hits == 0, run
            assert stats.makespan_ns == expected, run


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_frfcfs_promotes_younger_hits_when_the_window_holds_them(config):
    """n pairs alternating rows A and B of one bank: A, B, A, B, ...
    Let m = min(in-flight, window), the number of queued requests
    FR-FCFS can choose among.

    * m >= 2n: every request is queued and visible from the start.  The
      oldest, A, opens its row (``t_miss``).  From then on the bank
      always sees a request to its open row while one is left, and
      FR-FCFS serves it ahead of the older B: the other n − 1 A's hit,
      one ``t_burst`` each on the bank and bus alike.  Only B's are left;
      the oldest opens row B and the other n − 1 hit.  So there are
      2n − 2 hits and the makespan is ``2·t_miss + 2(n−1)·t_burst``.
    * m = 1: the scheduler only ever sees the oldest request, so service
      follows trace order; each request finds the other row open and
      misses: 0 hits and ``2n·t_miss``.

    Other m are left out: how many hits a partly visible queue promotes
    depends on when each request is admitted.
    """
    t_burst = config.effective_t_burst_ns
    t_miss = config.effective_t_row_miss_ns
    for n, inflight, window in itertools.product(
        (1, 2, 3, 5, 8), (1, 2, 3, 4, 8, 16, 64, 256), (1, 2, 3, 4, 8, 16)
    ):
        visible = min(inflight, window)
        if visible >= 2 * n:
            hits, expected = 2 * n - 2, 2 * t_miss + 2 * (n - 1) * t_burst
        elif visible == 1:
            hits, expected = 0, 2 * n * t_miss
        else:
            continue
        rows = np.tile([3, 40], n)
        ha = addresses(config, 9, 1, rows, columns(config, 2 * n, n))
        device = HBMDevice(config, max_inflight=inflight, frfcfs_window=window)
        stats = device.simulate(ha)
        run = f"n={n} inflight={inflight} window={window}"
        assert stats.requests == 2 * n, run
        assert stats.row_hits == hits, run
        assert stats.makespan_ns == expected, run
