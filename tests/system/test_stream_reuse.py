"""A run reuses the previous run's trace and cache-filtered stream.

``Machine`` gets every run's external stream from one process-wide
holder of the last one (``machine._LAST_STREAM``).  A run whose engine,
workload object, public workload attributes, base addresses and seed
equal the previous run's gets the previous ``ExternalTraceResult`` back
without generating its traces; anything else generates and filters
again.  The contract under test: reuse never changes a
result, it happens exactly when the inputs repeat, a run that raises
leaves the next one correct, and the shared stream cannot be written
to.
"""

import dataclasses

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace
from repro.ml.dlkmeans import AutoencoderConfig
from repro.system.config import standard_systems, system_by_key
from repro.system.machine import _LAST_STREAM, Machine
from repro.workloads.base import Workload
from repro.workloads.models import ModeledWorkload
from repro.workloads.spec import spec2006_workload
from repro.workloads.synthetic import MixedStrideWorkload, StridedCopyWorkload

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


@pytest.fixture
def trace_calls(monkeypatch):
    """Counts the workloads' trace calls: a repeated program makes none."""
    calls = []
    for cls in (MixedStrideWorkload, StridedCopyWorkload, ModeledWorkload):
        original = cls.trace

        def counted(self, base, input_seed=0, original=original):
            calls.append(type(self).__name__)
            return original(self, base, input_seed=input_seed)

        monkeypatch.setattr(cls, "trace", counted)
    return calls


def small_workload():
    return MixedStrideWorkload(strides=(1, 16), accesses_per_stride=600)


def small_model():
    return spec2006_workload("hmmer", total_accesses=3000)


class GivenTraces(Workload):
    """A program whose thread traces are the given ones.  Every instance
    is a new program, so the holder filters its traces again."""

    def __init__(self, traces):
        self._traces = traces

    def variables(self):
        return []

    def trace(self, base, input_seed=0):
        return self._traces


def filtered(engine, traces):
    """The holder's stream for the given thread traces."""
    return _LAST_STREAM.external(engine, GivenTraces(traces), {}, 0)


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
def test_warm_run_matches_cold_run(engine, system, filter_calls, trace_calls):
    workload = small_workload()
    profile = Machine(system_by_key("bs_dm"), engine=engine).profile(workload)
    machine = Machine(system, engine=engine, dl_config=FAST_DL)
    _LAST_STREAM.clear()
    cold = machine.run(workload, profile=profile)
    counts = len(filter_calls), len(trace_calls)
    warm = machine.run(workload, profile=profile, selection=cold.selection)
    # The warm run neither generated nor filtered a trace.
    assert (len(filter_calls), len(trace_calls)) == counts
    assert warm.external is cold.external
    assert warm.fingerprint() == cold.fingerprint()


def test_a_pass_records_the_same_hits_every_time(filter_calls, trace_calls):
    # Each round is one benchmark pass: the shared profile, then the
    # round's runs, so no reuse crosses from one round into the next.
    workload = small_workload()

    def work_since(start):
        """(generated, filtered) since ``start``."""
        return (len(trace_calls) > start[0], len(filter_calls) > start[1])

    rounds = []
    for _ in range(2):
        start = len(trace_calls), len(filter_calls)
        profile = Machine(system_by_key("bs_dm")).profile(workload)
        steps = [work_since(start)]
        for key in ("bs_dm", "bs_hm", "sdm_bsm"):
            start = len(trace_calls), len(filter_calls)
            Machine(system_by_key(key)).run(workload, profile=profile)
            steps.append(work_since(start))
        rounds.append(steps)
    # The profile input and the first run generate and filter; BS+HM
    # and SDM+BSM allocate the same virtual addresses as BS+DM, so they
    # do neither.
    steps = [(True, True), (True, True), (False, False), (False, False)]
    assert rounds == [steps] * 2


def test_a_second_identical_run_never_generates(trace_calls):
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    first = machine.run(workload)
    assert len(trace_calls) == 1
    for _ in range(3):
        assert machine.run(workload).external is first.external
    # A fresh machine of the same platform repeats the program too.
    assert Machine(system_by_key("bs_hm")).run(workload).external is (
        first.external
    )
    assert len(trace_calls) == 1


def reassign_attribute(workload):
    workload.write_fraction = 0.6


def edit_majors_in_place(workload):
    workload.majors[0] = dataclasses.replace(
        workload.majors[0], pattern="random"
    )


@pytest.mark.parametrize(
    "edit",
    [reassign_attribute, edit_majors_in_place],
    ids=["attribute-reassigned", "majors-edited-in-place"],
)
def test_an_edited_workload_regenerates(edit, trace_calls):
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    first = machine.run(workload)
    edit(workload)
    edited = machine.run(workload)
    assert len(trace_calls) == 2
    assert edited.external is not first.external
    _LAST_STREAM.clear()
    cold = machine.run(workload)
    assert edited.fingerprint() == cold.fingerprint()
    assert cold.fingerprint() != first.fingerprint()


def test_another_seed_regenerates(trace_calls):
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    first = machine.run(workload, eval_seed=1)
    other = machine.run(workload, eval_seed=2)
    assert len(trace_calls) == 2
    assert other.external is not first.external
    _LAST_STREAM.clear()
    cold = machine.run(workload, eval_seed=2)
    assert other.fingerprint() == cold.fingerprint()
    assert cold.fingerprint() != first.fingerprint()


def test_another_base_regenerates(trace_calls):
    workload = small_model()
    engine = CPUModel()
    base = {
        spec.name: (index + 1) << 28
        for index, spec in enumerate(workload.variables())
    }
    moved = dict(base, **{workload.majors[0].name: (64 << 28)})
    first = _LAST_STREAM.external(engine, workload, base, 1)
    other = _LAST_STREAM.external(engine, workload, moved, 1)
    assert len(trace_calls) == 2
    assert other is not first
    cold = engine.external_trace(workload.trace(moved, input_seed=1))
    assert same_stream(other, cold)
    assert not same_stream(first, cold)


def test_an_array_attribute_misses(filter_calls, trace_calls):
    # ``==`` on an ndarray attribute gives no single answer, so the
    # program never repeats: each run generates and filters.
    workload = StridedCopyWorkload(stride_lines=2, accesses_per_thread=500)
    workload.offsets = np.arange(4)
    machine = Machine(system_by_key("bs_dm"))
    first = machine.run(workload)
    again = machine.run(workload)
    assert (len(trace_calls), len(filter_calls)) == (2, 2)
    assert again.external is not first.external
    assert again.fingerprint() == first.fingerprint()


@pytest.mark.parametrize("stage", ["trace", "filter"])
def test_a_run_that_raises_leaves_the_next_run_correct(stage, monkeypatch):
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    first = machine.run(workload)
    owner, name = {
        "trace": (ModeledWorkload, "trace"),
        "filter": (CPUModel, "external_trace"),
    }[stage]
    original = getattr(owner, name)
    armed = [True]

    def fails_once(*args, **kwargs):
        if armed:
            armed.pop()
            raise RuntimeError(f"{stage} failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, fails_once)
    reassign_attribute(workload)
    with pytest.raises(RuntimeError, match=f"{stage} failed"):
        machine.run(workload)
    after = machine.run(workload)
    assert after.external is not first.external
    _LAST_STREAM.clear()
    assert after.fingerprint() == machine.run(workload).fingerprint()


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
    scratch = filtered(AcceleratorModel(), traces)
    bare = filtered(AcceleratorModel(scratch_bytes=0), traces)
    assert bare is not scratch
    assert same_stream(
        bare, AcceleratorModel(scratch_bytes=0).external_trace(traces)
    )


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
    before = filtered(engine, traces)
    array = getattr(traces[0], field)
    assert array.flags.writeable  # the caller's arrays stay its own
    array[7] = not array[7] if field == "is_write" else array[7] + 64
    after = filtered(engine, traces)
    assert after is not before
    assert same_stream(after, engine.external_trace(traces))


def test_editing_a_strided_thread_view_misses():
    traces = thread_traces()
    engine = CPUModel()
    before = filtered(engine, traces)
    traces[1].va[0] += np.uint64(1 << 20)
    after = filtered(engine, traces)
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
