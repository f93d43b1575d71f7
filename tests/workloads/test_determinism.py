"""Determinism guards for every workload family.

The evaluation methodology depends on reproducible traces: profiling
and evaluation runs must see exactly the same program for a given
input seed, and different seeds must actually change the input.  A
workload that silently consumed global RNG state would break both.

``Machine`` runs also rely on it: a run that repeats the previous run's
workload object, public attributes, base addresses and seed reuses the
previous run's stream without generating it again.  So a trace must be
a function of exactly those inputs: a fresh instance built with the
same arguments reproduces it, and generating it writes no public
attribute.
"""

import copy
import inspect

import numpy as np
import pytest

import repro.workloads
from repro.workloads import (
    BFSWorkload,
    HNSWWorkload,
    HashJoinWorkload,
    IVFPQWorkload,
    KMeansWorkload,
    MergeJoinWorkload,
    MixedStrideWorkload,
    PageRankWorkload,
    PhaseShiftWorkload,
    SSSPWorkload,
    StridedCopyWorkload,
    TieredPressureWorkload,
    Workload,
    parsec_workload,
    spec2006_workload,
)


def bases(workload) -> dict[str, int]:
    base = {}
    cursor = 0x10000000
    for spec in workload.variables():
        base[spec.name] = cursor
        cursor += spec.size_bytes + 4096
    return base


#: One small instance of every exported workload class.  Each factory
#: builds a new, equal instance on every call.
FACTORIES = {
    "bfs": lambda: BFSWorkload(scale=9, edge_factor=4, max_accesses=3000),
    "pagerank": lambda: PageRankWorkload(
        scale=9, edge_factor=4, max_accesses=3000
    ),
    "sssp": lambda: SSSPWorkload(scale=9, edge_factor=4, max_accesses=3000),
    "hashjoin": lambda: HashJoinWorkload(
        build_tuples=1024, probe_tuples=2048, max_accesses=3000
    ),
    "mergejoin": lambda: MergeJoinWorkload(tuples=2048, max_accesses=3000),
    "kmeans": lambda: KMeansWorkload(points=512, dims=8, max_accesses=3000),
    "hnsw": lambda: HNSWWorkload(
        nodes=512, dims=16, queries=16, max_accesses=3000
    ),
    "ivfpq": lambda: IVFPQWorkload(
        lists=32, vectors_per_list=64, queries=8, max_accesses=3000
    ),
    "mixed-stride": lambda: MixedStrideWorkload(
        strides=(1, 8), accesses_per_stride=500
    ),
    "strided-copy": lambda: StridedCopyWorkload(
        stride_lines=4, accesses_per_thread=1000
    ),
    "phase-shift": lambda: PhaseShiftWorkload(
        buffer_bytes=1 << 20, accesses_per_phase=800, dwell=64
    ),
    "tiered-pressure": lambda: TieredPressureWorkload(
        footprint_bytes=1 << 20, accesses=3000
    ),
    "spec-hmmer": lambda: spec2006_workload("hmmer", total_accesses=3000),
    "parsec-canneal": lambda: parsec_workload(
        "canneal", total_accesses=3000
    ),
}


def small_instances():
    return [factory() for factory in FACTORIES.values()]


def assert_same_traces(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.va, b.va)
        np.testing.assert_array_equal(a.variable, b.variable)
        np.testing.assert_array_equal(a.is_write, b.is_write)


def test_every_exported_workload_class_is_covered():
    exported = {
        value
        for value in vars(repro.workloads).values()
        if inspect.isclass(value)
        and issubclass(value, Workload)
        and not inspect.isabstract(value)
    }
    assert exported <= {type(w) for w in small_instances()}


@pytest.mark.parametrize(
    "workload", small_instances(), ids=lambda w: w.name
)
def test_same_seed_reproduces_trace(workload):
    base = bases(workload)
    first = workload.trace(base, input_seed=0)
    second = workload.trace(base, input_seed=0)
    assert_same_traces(first, second)


@pytest.mark.parametrize("factory", FACTORIES.values(), ids=FACTORIES)
def test_a_fresh_equal_instance_reproduces_trace(factory):
    workload = factory()
    base = bases(workload)
    first = workload.trace(base, input_seed=3)
    assert_same_traces(first, factory().trace(base, input_seed=3))


@pytest.mark.parametrize(
    "workload", small_instances(), ids=lambda w: w.name
)
def test_trace_writes_no_public_attribute(workload):
    def public():
        return {
            name: value
            for name, value in vars(workload).items()
            if not name.startswith("_")
        }

    before = copy.deepcopy(public())
    for seed in (0, 1):
        workload.trace(bases(workload), input_seed=seed)
    assert public() == before


@pytest.mark.parametrize(
    "workload", small_instances(), ids=lambda w: w.name
)
def test_different_seed_changes_trace(workload):
    base = bases(workload)
    first = np.concatenate([t.va for t in workload.trace(base, input_seed=0)])
    second = np.concatenate([t.va for t in workload.trace(base, input_seed=5)])
    assert first.size and second.size
    if first.size == second.size:
        assert not np.array_equal(first, second)


@pytest.mark.parametrize(
    "workload", small_instances(), ids=lambda w: w.name
)
def test_traces_are_tagged_and_in_bounds(workload):
    base = bases(workload)
    specs = workload.variables()
    limit = max(base[s.name] + s.size_bytes for s in specs)
    for trace in workload.trace(base, input_seed=1):
        if len(trace) == 0:
            continue
        assert (trace.variable >= 0).all()
        assert (trace.variable < len(specs)).all()
        assert int(trace.va.max()) < limit
