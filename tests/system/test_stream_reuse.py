"""A run reuses the previous run's cache-filtered external stream.

``Machine`` filters every run's thread traces through one process-wide
holder of the last stream (``machine._LAST_STREAM``).  A run whose
engine and thread traces equal the previous run's gets the previous
``ExternalTraceResult`` back; anything else filters again.  The
contract under test: reuse never changes a result, it happens exactly
when the inputs repeat, and the shared stream cannot be written to.
"""

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace
from repro.ml.dlkmeans import AutoencoderConfig
from repro.system.config import standard_systems, system_by_key
from repro.system.machine import _LAST_STREAM, Machine
from repro.workloads.synthetic import MixedStrideWorkload

FAST_DL = AutoencoderConfig(
    pretrain_steps=20, joint_steps=10, hidden_dim=16, delta_embed_dim=8
)

#: The six systems of the paper's comparison (§7.3).
SIX_SYSTEMS = standard_systems(cluster_counts=(4,))


@pytest.fixture(autouse=True)
def empty_holder():
    _LAST_STREAM.clear()
    yield
    _LAST_STREAM.clear()


@pytest.fixture
def filter_calls(monkeypatch):
    """Counts the engines' filter calls: a reused stream makes none."""
    calls = []
    for engine in (CPUModel, AcceleratorModel):
        original = engine.external_trace

        def counted(self, thread_traces, original=original):
            calls.append(type(self).__name__)
            return original(self, thread_traces)

        monkeypatch.setattr(engine, "external_trace", counted)
    return calls


def small_workload():
    return MixedStrideWorkload(strides=(1, 16), accesses_per_stride=600)


def thread_traces(threads=3, n=2000, seed=0):
    """Views of one merged trace, dealt round-robin like the graph
    workloads' threads."""
    rng = np.random.default_rng(seed)
    merged = AccessTrace(
        va=rng.integers(0, 1 << 22, n * threads).astype(np.uint64) * 8,
        is_write=rng.random(n * threads) < 0.3,
        variable=rng.integers(0, 4, n * threads),
    )
    return [
        AccessTrace(
            va=merged.va[t::threads],
            is_write=merged.is_write[t::threads],
            variable=merged.variable[t::threads],
        )
        for t in range(threads)
    ]


def same_stream(a, b) -> bool:
    return (
        np.array_equal(a.trace.va, b.trace.va)
        and np.array_equal(a.trace.is_write, b.trace.is_write)
        and np.array_equal(a.trace.variable, b.trace.variable)
        and (a.l1_hit_rate, a.llc_hit_rate, a.program_accesses)
        == (b.l1_hit_rate, b.llc_hit_rate, b.program_accesses)
    )


@pytest.mark.parametrize("engine", ["cpu", "accelerator"])
@pytest.mark.parametrize("system", SIX_SYSTEMS, ids=lambda s: s.key)
def test_warm_run_matches_cold_run(engine, system, filter_calls):
    workload = small_workload()
    profile = Machine(system_by_key("bs_dm"), engine=engine).profile(workload)
    machine = Machine(system, engine=engine, dl_config=FAST_DL)
    _LAST_STREAM.clear()
    cold = machine.run(workload, profile=profile)
    filtered = len(filter_calls)
    warm = machine.run(workload, profile=profile, selection=cold.selection)
    assert len(filter_calls) == filtered  # the warm run filtered nothing
    assert warm.external is cold.external
    assert warm.fingerprint() == cold.fingerprint()


def test_a_pass_records_the_same_hits_every_time(filter_calls):
    # Each round is one benchmark pass: the shared profile, then the
    # round's runs, so no reuse crosses from one round into the next.
    workload = small_workload()
    rounds = []
    for _ in range(2):
        hits = []
        start = len(filter_calls)
        profile = Machine(system_by_key("bs_dm")).profile(workload)
        hits.append(len(filter_calls) == start)
        for key in ("bs_dm", "bs_hm", "sdm_bsm"):
            start = len(filter_calls)
            Machine(system_by_key(key)).run(workload, profile=profile)
            hits.append(len(filter_calls) == start)
        rounds.append(hits)
    # The profile input and the first run miss; BS+HM and SDM+BSM
    # allocate the same virtual addresses as BS+DM, so they hit.
    assert rounds == [[False, False, True, True]] * 2


def test_another_core_count_misses():
    workload = small_workload()
    system = system_by_key("bs_dm")
    four = Machine(system, cores=4).run(workload)
    two = Machine(system, cores=2).run(workload)
    assert two.external is not four.external
    _LAST_STREAM.clear()
    cold = Machine(system, cores=2).run(workload)
    assert two.fingerprint() == cold.fingerprint()


def test_another_scratch_size_misses():
    traces = thread_traces()
    scratch = _LAST_STREAM.external(AcceleratorModel(), traces)
    bare = _LAST_STREAM.external(AcceleratorModel(scratch_bytes=0), traces)
    assert bare is not scratch
    assert same_stream(
        bare, AcceleratorModel(scratch_bytes=0).external_trace(traces)
    )


def test_repeated_traces_hit():
    engine = CPUModel()
    first = _LAST_STREAM.external(engine, thread_traces(seed=3))
    # Equal arrays in fresh objects, from a fresh engine of one config.
    again = _LAST_STREAM.external(CPUModel(), thread_traces(seed=3))
    assert again is first


@pytest.mark.parametrize("field", ["va", "is_write", "variable"])
@pytest.mark.parametrize(
    "engine",
    [CPUModel(), AcceleratorModel(scratch_bytes=0)],
    ids=["cpu", "accelerator-no-scratch"],
)
def test_a_trace_edited_in_place_misses(engine, field):
    # One thread: the accelerator without scratch would pass its write
    # flags and variables straight through to the stream.
    traces = thread_traces(threads=1)
    before = _LAST_STREAM.external(engine, traces)
    array = getattr(traces[0], field)
    assert array.flags.writeable  # the caller's arrays stay its own
    array[7] = not array[7] if field == "is_write" else array[7] + 64
    after = _LAST_STREAM.external(engine, traces)
    assert after is not before
    assert same_stream(after, engine.external_trace(traces))


def test_editing_a_strided_thread_view_misses():
    traces = thread_traces()
    engine = CPUModel()
    before = _LAST_STREAM.external(engine, traces)
    traces[1].va[0] += np.uint64(1 << 20)
    after = _LAST_STREAM.external(engine, traces)
    assert after is not before
    assert same_stream(after, engine.external_trace(traces))


@pytest.mark.parametrize("engine", ["cpu", "accelerator"])
def test_the_returned_stream_is_read_only(engine):
    result = Machine(system_by_key("bs_dm"), engine=engine).run(
        small_workload()
    )
    trace = result.external.trace
    for array in (trace.va, trace.is_write, trace.variable):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
