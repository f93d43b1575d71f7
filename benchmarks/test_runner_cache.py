"""Experiment-engine benchmark: cold and warm sweeps.

Runs the quick Fig. 12-style sweep twice on one stage cache — cold,
then warm — and asserts the engine's contract: the warm sweep is at
least 5x faster than the cold one (100 % cache hits, zero bytes
simulated) and bit-identical to it.
"""

from __future__ import annotations

import time

from repro.api import QUICK_DL_CONFIG, evaluation_workloads
from repro.system import Session, standard_systems
from repro.system.reporting import format_table


def run_cold_then_warm(tmp_path):
    workloads = evaluation_workloads(quick=True)
    systems = standard_systems()

    start = time.perf_counter()
    cold = Session(tmp_path, dl_config=QUICK_DL_CONFIG).sweep(workloads, systems)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = Session(tmp_path, dl_config=QUICK_DL_CONFIG).sweep(workloads, systems)
    warm_seconds = time.perf_counter() - start

    return (cold, cold_seconds), (warm, warm_seconds)


def test_runner_cache_speedup(benchmark, record, tmp_path):
    (cold, c_sec), (warm, w_sec) = benchmark.pedantic(
        run_cold_then_warm, args=(tmp_path,), rounds=1, iterations=1
    )
    cells = len(cold.table.workloads()) * len(cold.table.systems())
    rows = [
        {"mode": "cold", "seconds": c_sec, "cache_hits": cold.cache_hits},
        {"mode": "warm cache", "seconds": w_sec, "cache_hits": warm.cache_hits},
        {"mode": "warm speedup", "seconds": c_sec / w_sec, "cache_hits": cells},
    ]
    record(
        "runner_cache",
        format_table(rows, title="quick suite: cold and warm sweeps"),
    )

    assert not cold.errors and not warm.errors
    # Warm == cold, bit-identically, from the cache alone.
    assert warm.table.to_dict() == cold.table.to_dict()
    assert warm.metrics["evaluate"].cache_hits == cells
    assert warm.cache_misses == 0
    assert warm.bytes_simulated == 0
    assert c_sec / w_sec >= 5.0
