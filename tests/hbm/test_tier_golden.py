"""Golden digests of the three timing tiers' run statistics.

Each case runs one decoded request stream through one tier at one
FR-FCFS window and hashes the JSON form of the resulting
:class:`~repro.hbm.stats.RunStats`.  Any change to a tier's row-hit
rule or timing arithmetic that moves a single counter, busy time or
makespan bit shows up here.  The traces cover streaming copies at
three strides, uniform random lines and one accelerator ``hashjoin``
external stream; the windows cover in-order batches (1), the default
(8) and the widest the ablation sweeps (16).  The event tier is also
pinned on ``hashjoin`` with ECC-retry flags and at the extremes of its
in-flight window, and on ``random`` and ``copy-s4`` at the widest
in-flight window (most channels scheduled at once, longest queues) and
on ``random`` with ECC-retry flags.  Four more
cases run whole programs through a :class:`~repro.system.machine.
Machine` on the event tier: the ``tier-calib`` benchmark's mixed-stride
copies under BS+DM (a quarter of the requests on one channel, so the
deepest queues and the most lookahead scans), BS+HM and SDM+BSM, and
``fig15-accel``'s ``hashjoin`` under BS+DM on the accelerator (in-flight
256).
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.hbm.config import hbm2_config
from repro.hbm.decode import DecodedTrace, decode_trace
from repro.hbm.device import HBMDevice
from repro.hbm.fastmodel import WindowModel
from repro.hbm.vectormodel import VectorModel
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.workloads import HashJoinWorkload, MixedStrideWorkload

CONFIG = hbm2_config()
LINE = CONFIG.line_bytes
WINDOWS = (1, 8, 16)


def copy_trace(stride_lines: int, count: int = 8192) -> np.ndarray:
    """Read a source array and write a destination, interleaved."""
    src = np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * LINE)
    dst = src + np.uint64(1 << 30)
    return np.stack([src, dst], axis=1).reshape(-1) % np.uint64(
        CONFIG.total_bytes
    )


def random_trace(count: int = 20_000, seed: int = 5) -> np.ndarray:
    """Uniform random lines in 2 MiB, so rows recur at every distance."""
    rng = np.random.default_rng(seed)
    lines = (2 << 20) // LINE
    return rng.integers(0, lines, count, dtype=np.uint64) * np.uint64(LINE)


def hashjoin_trace() -> np.ndarray:
    """The accelerator's external stream for ``hashjoin``, page-aligned."""
    workload = HashJoinWorkload()
    base, cursor = {}, 1 << 32
    for spec in workload.variables():
        base[spec.name] = cursor
        cursor += -(-spec.size_bytes // 4096) * 4096 + 4096
    traces = workload.trace(base, input_seed=5)
    va = AcceleratorModel().external_trace(traces).trace.va
    return np.asarray(va, dtype=np.uint64) % np.uint64(CONFIG.total_bytes)


TRACES = {
    "copy-s1": lambda: copy_trace(1),
    "copy-s4": lambda: copy_trace(4),
    "copy-s16": lambda: copy_trace(16),
    "random": random_trace,
    "hashjoin": hashjoin_trace,
}


@lru_cache(maxsize=None)
def decoded(name: str) -> DecodedTrace:
    return decode_trace(TRACES[name](), CONFIG)


def digest(stats) -> str:
    text = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def forced_mask(n: int) -> np.ndarray:
    """Every seventh request is an ECC retry."""
    return np.arange(n) % 7 == 3


GOLDEN = {
    ("event", "copy-s1", 1): "ad0df6be3bccbaed",
    ("event", "copy-s1", 8): "c5f125fdc1b0d970",
    ("event", "copy-s1", 16): "c5f125fdc1b0d970",
    ("event", "copy-s16", 1): "c68548b751f0ee41",
    ("event", "copy-s16", 8): "1c07231c62b710a0",
    ("event", "copy-s16", 16): "1c07231c62b710a0",
    ("event", "copy-s4", 1): "4281d5965768fa7b",
    ("event", "copy-s4", "inflight256"): "a03650ab138a22d1",
    ("event", "copy-s4", 8): "a03650ab138a22d1",
    ("event", "copy-s4", 16): "a03650ab138a22d1",
    ("event", "hashjoin", 1): "609178d3326f254d",
    ("event", "hashjoin", 8): "21e6497990cd3fcf",
    ("event", "hashjoin", 16): "e337748546771055",
    ("event", "hashjoin", "forced"): "3f05bb5f07926330",
    ("event", "hashjoin", "inflight1"): "14970fe41f45cac3",
    ("event", "hashjoin", "inflight256"): "a4b0e971bda1f487",
    ("event", "random", 1): "7a309a0f50710917",
    ("event", "random", 8): "c76860d25f81656e",
    ("event", "random", 16): "b99f18167985b12d",
    ("event", "random", "forced"): "9266e130bfb8ac59",
    ("event", "random", "inflight256"): "a9773ca2a1b31401",
    ("event", "machine", "mixed-stride", "bs_dm"): "eb04976f5d098e0c",
    ("event", "machine", "mixed-stride", "bs_hm"): "b2af18752982456c",
    ("event", "machine", "mixed-stride", "sdm_bsm"): "abcad3c2103b3cfd",
    ("event", "machine", "hashjoin-accel", "bs_dm"): "5dc24e6a40dba15c",
    ("fast", "copy-s1", 1): "3acd147630dbc9a7",
    ("fast", "copy-s1", 8): "e56b3776609b9377",
    ("fast", "copy-s1", 16): "e56b3776609b9377",
    ("fast", "copy-s16", 1): "58a592341a54d0e4",
    ("fast", "copy-s16", 8): "732b1ec0a2ffb401",
    ("fast", "copy-s16", 16): "732b1ec0a2ffb401",
    ("fast", "copy-s4", 1): "4596eacbe3172632",
    ("fast", "copy-s4", 8): "b4c070dfbd703572",
    ("fast", "copy-s4", 16): "b4c070dfbd703572",
    ("fast", "hashjoin", 1): "fcbbabc240c8603a",
    ("fast", "hashjoin", 8): "9b65a3769e3a4c65",
    ("fast", "hashjoin", 16): "05276a47df610e3d",
    ("fast", "hashjoin", "forced"): "3bfe37e736bce137",
    ("fast", "random", 1): "a5eb035426c18884",
    ("fast", "random", 8): "15cf7ea314746873",
    ("fast", "random", 16): "17512661d3952a0d",
    ("vector", "copy-s1", 1): "77820d94cfa4469a",
    ("vector", "copy-s1", 8): "30a433f7097b585f",
    ("vector", "copy-s1", 16): "30a433f7097b585f",
    ("vector", "copy-s16", 1): "f4e610221200d6ff",
    ("vector", "copy-s16", 8): "c7eaa1beb8e38114",
    ("vector", "copy-s16", 16): "c7eaa1beb8e38114",
    ("vector", "copy-s4", 1): "b21d6a60e38d4e0f",
    ("vector", "copy-s4", 8): "eee8d111f78328a6",
    ("vector", "copy-s4", 16): "eee8d111f78328a6",
    ("vector", "hashjoin", 1): "c2ed882def378e23",
    ("vector", "hashjoin", 8): "f79fea201f5fff6e",
    ("vector", "hashjoin", 16): "6e37cece33438e96",
    ("vector", "hashjoin", "blocks777"): "3990eee9e6f62d50",
    ("vector", "hashjoin", "forced"): "05ad9909c1ed66d2",
    ("vector", "random", 1): "58d85fcabcb72e31",
    ("vector", "random", 8): "383ee26e36798f72",
    ("vector", "random", 16): "1f02757531eacacd",
}


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_fast_tier_matches_golden(trace, window):
    stats = WindowModel(CONFIG, reorder_window=window).simulate_decoded(
        decoded(trace)
    )
    assert digest(stats) == GOLDEN["fast", trace, window]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_vector_tier_matches_golden(trace, window):
    stats = VectorModel(CONFIG, frfcfs_window=window).simulate_decoded(
        decoded(trace)
    )
    assert digest(stats) == GOLDEN["vector", trace, window]


def test_fast_tier_forced_miss_matches_golden():
    stream = decoded("hashjoin")
    stats = WindowModel(CONFIG).simulate_decoded(
        stream, forced_miss=forced_mask(len(stream))
    )
    assert digest(stats) == GOLDEN["fast", "hashjoin", "forced"]


def test_vector_tier_forced_miss_matches_golden():
    stream = decoded("hashjoin")
    stats = VectorModel(CONFIG).simulate_decoded(
        stream, forced_miss=forced_mask(len(stream))
    )
    assert digest(stats) == GOLDEN["vector", "hashjoin", "forced"]


def test_vector_tier_chunked_small_blocks_matches_golden():
    """Small blocks carry open rows and ready times from block to block,
    and each channel's blocks are cut at multiples of 777 of its own
    requests."""
    stats = VectorModel(CONFIG, block_accesses=777).simulate_decoded(
        decoded("hashjoin")
    )
    assert digest(stats) == GOLDEN["vector", "hashjoin", "blocks777"]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_event_tier_matches_golden(trace, window):
    stats = HBMDevice(CONFIG, frfcfs_window=window).simulate_decoded(
        decoded(trace)
    )
    assert digest(stats) == GOLDEN["event", trace, window]


def test_event_tier_forced_miss_matches_golden():
    stream = decoded("hashjoin")
    stats = HBMDevice(CONFIG).simulate_decoded(
        stream, forced_miss=forced_mask(len(stream))
    )
    assert digest(stats) == GOLDEN["event", "hashjoin", "forced"]


@pytest.mark.parametrize("inflight", [1, 256])
def test_event_tier_inflight_extremes_match_golden(inflight):
    stats = HBMDevice(CONFIG, max_inflight=inflight).simulate_decoded(
        decoded("hashjoin")
    )
    assert digest(stats) == GOLDEN["event", "hashjoin", f"inflight{inflight}"]


@pytest.mark.parametrize("trace", ["copy-s4", "random"])
def test_event_tier_wide_inflight_matches_golden(trace):
    """Up to 256 queued requests spread over every channel."""
    stats = HBMDevice(CONFIG, max_inflight=256).simulate_decoded(
        decoded(trace)
    )
    assert digest(stats) == GOLDEN["event", trace, "inflight256"]


def test_event_tier_random_forced_miss_matches_golden():
    stream = decoded("random")
    stats = HBMDevice(CONFIG).simulate_decoded(
        stream, forced_miss=forced_mask(len(stream))
    )
    assert digest(stats) == GOLDEN["event", "random", "forced"]


@pytest.mark.parametrize("system", ["bs_dm", "bs_hm", "sdm_bsm"])
def test_event_tier_mixed_stride_machine_matches_golden(system):
    """The ``tier-calib`` benchmark's event cells, end to end."""
    workload = MixedStrideWorkload((1, 4, 8, 16), accesses_per_stride=8192)
    result = Machine(system_by_key(system), backend="event").run(workload)
    assert result.stats.requests == 44_311
    assert digest(result.stats) == GOLDEN[
        "event", "machine", "mixed-stride", system
    ]


def test_event_tier_hashjoin_accelerator_machine_matches_golden():
    """``fig15-accel``'s calibration cell: BS+DM, in-flight 256."""
    machine = Machine(
        system_by_key("bs_dm"), engine="accelerator", backend="event"
    )
    result = machine.run(HashJoinWorkload())
    assert result.stats.requests == 64_718
    assert digest(result.stats) == GOLDEN[
        "event", "machine", "hashjoin-accel", "bs_dm"
    ]
