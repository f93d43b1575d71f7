"""The serialised form of the run ledgers, pinned.

Every literal below is the ``to_dict()`` output of the commit before
the ledgers moved onto :class:`repro.ledger.Ledger`, recorded before any
source edit: one populated instance of each ledger, plus two legacy
inputs that stored reports and stage-cache entries still carry.  The
checks compare ``json.dumps`` text without ``sort_keys``, so key order
is pinned as well as content.
"""

import json

import numpy as np
import pytest

from repro.hbm.stats import RemapTraffic, RunStats
from repro.system.machine import MachineResult
from repro.system.runner import StageMetrics
from repro.tier.stats import TierTraffic


#: (ledger class, builder of one populated instance, its pinned dict).
POPULATED = {
    "RunStats": (
        RunStats,
        lambda: RunStats(
            requests=96,
            bytes_moved=6144,
            makespan_ns=1234.5,
            row_hits=70,
            row_misses=26,
            num_channels=4,
            per_channel_requests=np.array([40, 0, 31, 25], dtype=np.int64),
            per_channel_busy_ns=np.array([610.25, 0.0, 402.5, 330.125]),
        ),
        {
            "requests": 96,
            "bytes_moved": 6144,
            "makespan_ns": 1234.5,
            "row_hits": 70,
            "row_misses": 26,
            "num_channels": 4,
            "per_channel_requests": [40, 0, 31, 25],
            "per_channel_busy_ns": [610.25, 0.0, 402.5, 330.125],
        },
    ),
    "RemapTraffic": (
        RemapTraffic,
        lambda: RemapTraffic(
            remaps=3,
            failed_remaps=1,
            rollback_migrations=2,
            chunks_migrated=5,
            lines_copied=640,
            bytes_moved=81920,
            migration_ns=5120.5,
            cmt_writes=7,
            amu_reprograms=4,
            reprogram_ns=96.25,
        ),
        {
            "remaps": 3,
            "failed_remaps": 1,
            "rollback_migrations": 2,
            "chunks_migrated": 5,
            "lines_copied": 640,
            "bytes_moved": 81920,
            "migration_ns": 5120.5,
            "cmt_writes": 7,
            "amu_reprograms": 4,
            "reprogram_ns": 96.25,
            "overhead_ns": 5216.75,
        },
    ),
    "TierTraffic": (
        TierTraffic,
        lambda: TierTraffic(
            fast_accesses=900,
            slow_accesses=124,
            promotions=6,
            demotions=5,
            retired_pins=1,
            swap_waves=3,
            swap_bytes=45056,
            swap_ns=2200.5,
            trans_lookups=1024,
            trans_hits=1000,
            trans_misses=24,
            trans_ns=312.25,
            slow_busy_ns=9876.5,
        ),
        {
            "fast_accesses": 900,
            "slow_accesses": 124,
            "promotions": 6,
            "demotions": 5,
            "retired_pins": 1,
            "swap_waves": 3,
            "swap_bytes": 45056,
            "swap_ns": 2200.5,
            "trans_lookups": 1024,
            "trans_hits": 1000,
            "trans_misses": 24,
            "trans_ns": 312.25,
            "slow_busy_ns": 9876.5,
            "fast_fraction": 0.87890625,
            "overhead_ns": 2512.75,
        },
    ),
    "StageMetrics": (
        StageMetrics,
        lambda: StageMetrics(
            "evaluate",
            wall_seconds=1.625,
            runs=9,
            bytes_simulated=1572864,
        ),
        {
            "stage": "evaluate",
            "wall_seconds": 1.625,
            "runs": 9,
            "bytes_simulated": 1572864,
        },
    ),
}

#: Tier traffic written before ``retired_pins`` and ``slow_busy_ns``
#: existed, and what it loads as.
LEGACY_TIER = {
    "fast_accesses": 700,
    "slow_accesses": 300,
    "promotions": 4,
    "demotions": 4,
    "swap_waves": 2,
    "swap_bytes": 32768,
    "swap_ns": 1500.0,
    "trans_lookups": 1000,
    "trans_hits": 990,
    "trans_misses": 10,
    "trans_ns": 120.0,
    "fast_fraction": 0.7,
    "overhead_ns": 1620.0,
}
LEGACY_TIER_LOADED = {
    "fast_accesses": 700,
    "slow_accesses": 300,
    "promotions": 4,
    "demotions": 4,
    "retired_pins": 0,
    "swap_waves": 2,
    "swap_bytes": 32768,
    "swap_ns": 1500.0,
    "trans_lookups": 1000,
    "trans_hits": 990,
    "trans_misses": 10,
    "trans_ns": 120.0,
    "slow_busy_ns": 0.0,
    "fast_fraction": 0.7,
    "overhead_ns": 1620.0,
}

#: The ``to_dict`` form ``repro suite --json`` writes
#: for ``copy-stride4`` (stride 4, 256 accesses per thread) on SDM+BSM.
CACHED_RESULT = {
    "workload": "copy-stride4",
    "system": "SDM+BSM",
    "stats": {
        "requests": 1024,
        "bytes_moved": 65536,
        "makespan_ns": 770.0,
        "row_hits": 604,
        "row_misses": 420,
        "num_channels": 32,
        "per_channel_requests": [44, 44] + [28] * 6 + [44, 44] + [28] * 6
        + [44, 44] + [28] * 6 + [44, 44] + [28] * 6,
        "per_channel_busy_ns": [
            710.0, 650.0, 770.0, 770.0, 700.0, 630.0, 770.0, 770.0,
            650.0, 650.0, 770.0, 770.0, 630.0, 630.0, 770.0, 770.0,
            650.0, 650.0, 770.0, 770.0, 630.0, 630.0, 770.0, 770.0,
            650.0, 650.0, 770.0, 770.0, 630.0, 630.0, 770.0, 770.0,
        ],
    },
    "external": {
        "l1_hit_rate": 0.0,
        "llc_hit_rate": 0.0,
        "program_accesses": 1024,
        "external_accesses": 1024,
    },
    "selection": {
        "method": "application-bsm",
        "k": 1,
        "num_mappings": 1,
        "variable_cluster": {"0": 0, "1": 0},
        "elapsed_seconds": 0.0003047680002055131,
    },
    "compute_ns": 1024.0,
    "profiling_seconds": 0.0003047680002055131,
}


def _text(data: dict) -> str:
    return json.dumps(data)


@pytest.mark.parametrize("name", list(POPULATED))
def test_populated_to_dict_is_pinned(name):
    _, build, pinned = POPULATED[name]
    assert _text(build().to_dict()) == _text(pinned)


@pytest.mark.parametrize("name", list(POPULATED))
def test_from_dict_reproduces_the_pinned_dict(name):
    cls, build, pinned = POPULATED[name]
    loaded = cls.from_dict(pinned)
    assert _text(loaded.to_dict()) == _text(pinned)
    assert loaded == build()


def test_legacy_tier_traffic_fills_missing_counters_with_zero():
    loaded = TierTraffic.from_dict(LEGACY_TIER)
    assert _text(loaded.to_dict()) == _text(LEGACY_TIER_LOADED)


def test_retired_sdam_counters_are_ignored_on_load():
    """Tier traffic written while it still carried ``sdam_remaps`` and
    ``sdam_rollbacks`` loads without them."""
    written = dict(LEGACY_TIER_LOADED, sdam_remaps=0, sdam_rollbacks=0)
    loaded = TierTraffic.from_dict(written)
    assert _text(loaded.to_dict()) == _text(LEGACY_TIER_LOADED)


def test_cached_machine_result_round_trips_byte_for_byte():
    loaded = MachineResult.from_dict(json.loads(_text(CACHED_RESULT)))
    assert _text(loaded.to_dict()) == _text(CACHED_RESULT)
