"""Golden digests of the external stream for fixed workloads and seeds.

The external stream (misses and write-backs in order, with their write
flags and variable tags) is what SDAM profiles and remaps, so any change
to the cache filter or the interleave that moves a single access shows
up here.  The first four digests were recorded with the per-access dict
LRU; the rest pin the two other Fig. 15 programs on the accelerator and
a graph workload, whose threads are dealt from one merged trace, on
four and on two cores.
"""

import hashlib

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel
from repro.workloads import (
    BFSWorkload,
    HashJoinWorkload,
    MergeJoinWorkload,
    PageRankWorkload,
    spec2006_workload,
)


def layout(workload) -> dict[str, int]:
    """Page-aligned bases, one guard page apart, in variable order."""
    base, cursor = {}, 1 << 32
    for spec in workload.variables():
        base[spec.name] = cursor
        cursor += -(-spec.size_bytes // 4096) * 4096 + 4096
    return base


def stream_digest(trace) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(trace.va, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(trace.is_write, dtype=np.uint8).tobytes())
    digest.update(np.ascontiguousarray(trace.variable, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


def summary(result) -> tuple:
    return (
        len(result.trace),
        stream_digest(result.trace),
        round(result.l1_hit_rate * result.program_accesses),
        round(result.llc_hit_rate * result.program_accesses),
    )


CASES = {
    "perlbench-cpu4": (
        lambda: spec2006_workload("perlbench", total_accesses=48_000),
        lambda: CPUModel(cores=4),
        3,
    ),
    # Four threads on two cores: each L1 stays warm across its threads.
    "mcf-cpu2": (
        lambda: spec2006_workload("mcf", total_accesses=48_000),
        lambda: CPUModel(cores=2),
        5,
    ),
    "bfs-accel": (lambda: BFSWorkload(), lambda: AcceleratorModel(), 3),
    "hashjoin-accel": (lambda: HashJoinWorkload(), lambda: AcceleratorModel(), 5),
    "pagerank-accel": (lambda: PageRankWorkload(), lambda: AcceleratorModel(), 3),
    "mergejoin-accel": (lambda: MergeJoinWorkload(), lambda: AcceleratorModel(), 5),
    # Four near-equal graph threads (one access short on the last).
    "bfs-cpu4": (lambda: BFSWorkload(), lambda: CPUModel(cores=4), 7),
    "bfs-cpu2": (lambda: BFSWorkload(), lambda: CPUModel(cores=2), 7),
}

GOLDEN = {
    "perlbench-cpu4": (56985, "9359e1ab94c2f8af", 166, 14847),
    "mcf-cpu2": (44877, "3495ca14d2d7d649", 44, 8426),
    "bfs-accel": (34897, "84d591654caf6bba", 22610, 0),
    "hashjoin-accel": (64752, "122afeff14385a50", 3625, 0),
    "pagerank-accel": (38242, "624ed245c1d8e491", 15750, 0),
    "mergejoin-accel": (53892, "4f059b4f1bfa12ba", 6011, 0),
    "bfs-cpu4": (12762, "c462baef4c7bc6ff", 9589, 33696),
    "bfs-cpu2": (12826, "7cb75204c7764c43", 9668, 33739),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_external_stream_matches_golden(case):
    make_workload, make_engine, seed = CASES[case]
    workload = make_workload()
    traces = workload.trace(layout(workload), input_seed=seed)
    result = make_engine().external_trace(traces)
    assert summary(result) == GOLDEN[case]
