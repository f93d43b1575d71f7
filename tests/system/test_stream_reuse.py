"""A run reuses the previous run's trace and cache-filtered stream.

``Machine`` gets every run's external stream from one process-wide
holder of the last one (``machine._LAST_STREAM``).  A run whose engine,
workload object, public workload attributes, base addresses and seed
equal the previous run's gets the previous ``ExternalTraceResult`` back
without generating its traces; anything else generates and filters
again.  A run on a kernel without SDAM also reuses the stream's PA
trace, if the kept one was translated for the same chunk geometry and
colours.  The contract under test: reuse never changes a result, it
happens exactly when the inputs repeat, a run that raises leaves the
next one correct, and the shared stream and PA cannot be written to.
"""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel
from repro.core.chunks import ChunkGeometry
from repro.cpu.trace import AccessTrace
from repro.mem.kernel import Kernel
from repro.mem.virtual import AddressSpace
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


@pytest.fixture
def translate_calls(monkeypatch):
    """Counts page-table walks: a reused PA trace makes none."""
    calls = []
    original = AddressSpace.translate_trace

    def counted(self, va):
        calls.append(len(va))
        return original(self, va)

    monkeypatch.setattr(AddressSpace, "translate_trace", counted)
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


@pytest.mark.parametrize("stage", ["trace", "filter", "translate"])
def test_a_run_that_raises_leaves_the_next_run_correct(stage, monkeypatch):
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    first = machine.run(workload)
    owner, name = {
        "trace": (ModeledWorkload, "trace"),
        "filter": (CPUModel, "external_trace"),
        "translate": (AddressSpace, "translate_trace"),
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


def cold(machine, workload, **kwargs):
    """``machine.run`` with nothing kept from an earlier run."""
    _LAST_STREAM.clear()
    return machine.run(workload, **kwargs)


def test_the_non_sdam_systems_translate_once(translate_calls):
    # BS+DM, BS+BSM and BS+HM share one OS allocation; they differ only
    # in the boot-time PA -> HA mapping, after translation.
    workload = small_model()
    profile = Machine(system_by_key("bs_dm")).profile(workload)
    del translate_calls[:]
    warm = [
        Machine(system_by_key(key)).run(workload, profile=profile)
        for key in ("bs_dm", "bs_bsm", "bs_hm")
    ]
    assert len(translate_calls) == 1
    for key, result in zip(("bs_dm", "bs_bsm", "bs_hm"), warm):
        machine = Machine(system_by_key(key))
        assert result.fingerprint() == cold(
            machine, workload, profile=profile
        ).fingerprint()


def test_an_sdam_run_neither_reads_nor_writes_the_kept_pa(translate_calls):
    # SDM+BSM allocates the same virtual addresses as BS+DM, so it
    # repeats the stream, but its kernel places pages by mapping.
    workload = small_model()
    profile = Machine(system_by_key("bs_dm")).profile(workload)
    baseline = Machine(system_by_key("bs_dm"))
    sdam = Machine(system_by_key("sdm_bsm"))
    first = baseline.run(workload, profile=profile)
    assert len(translate_calls) == 2  # the profile input, then the run
    warm = sdam.run(workload, profile=profile)
    assert warm.external is first.external
    assert len(translate_calls) == 3
    # The PA kept before the SDAM run still serves the next baseline.
    after = baseline.run(workload, profile=profile)
    assert len(translate_calls) == 3
    assert warm.fingerprint() == cold(sdam, workload, profile=profile).fingerprint()
    assert after.fingerprint() == cold(
        baseline, workload, profile=profile
    ).fingerprint()


SMALL_CHUNKS = ChunkGeometry(total_bytes=8 << 30, chunk_bytes=1 << 20)


@pytest.mark.parametrize(
    "other",
    [{"chunk_colours": 4}, {"geometry": SMALL_CHUNKS}],
    ids=["chunk-colours", "geometry"],
)
def test_another_kernel_translates_again(other, translate_calls, filter_calls):
    workload = small_model()
    system = system_by_key("bs_hm")
    Machine(system).run(workload)
    moved = Machine(system, **other)
    warm = moved.run(workload)
    # Same stream, walked again for the other kernel.
    assert (len(filter_calls), len(translate_calls)) == (1, 2)
    moved.run(workload)
    assert (len(filter_calls), len(translate_calls)) == (1, 2)
    assert warm.fingerprint() == cold(moved, workload).fingerprint()


@pytest.mark.parametrize("colours,walks", [(8, 1), (4, 2)])
def test_a_profile_keys_its_pa_on_its_own_kernel(colours, walks, translate_calls):
    # ``profile`` builds its kernel with the default 8 colours, whatever
    # the machine's: a run at another count on the same input walks again.
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"), chunk_colours=colours)
    machine.profile(workload, input_seed=1)
    warm = machine.run(workload, eval_seed=1)
    assert len(translate_calls) == walks
    assert warm.fingerprint() == cold(machine, workload, eval_seed=1).fingerprint()


def test_a_new_stream_translates_again(translate_calls):
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    machine.run(workload, eval_seed=1)
    other = machine.run(workload, eval_seed=2)
    assert len(translate_calls) == 2
    assert other.fingerprint() == cold(
        machine, workload, eval_seed=2
    ).fingerprint()


def test_the_kept_pa_is_read_only_and_goes_with_its_stream():
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    external = machine.run(workload).external
    kernel = Kernel(machine.geometry, chunk_colours=machine.chunk_colours)
    space, _, _, _ = machine._allocate(kernel, workload, {})
    pa = _LAST_STREAM.physical(external, kernel, space)
    assert pa is _LAST_STREAM.physical(external, kernel, space)
    with pytest.raises(ValueError, match="read-only"):
        pa[0] = 0
    kept = weakref.ref(pa)
    del pa, external
    machine.run(workload, eval_seed=2)  # replaces the entry
    gc.collect()
    assert kept() is None


def test_a_replaced_stream_never_gets_the_kept_pa():
    # A caller still holding an earlier stream, whose entry another run
    # has replaced since, walks its own page table and keeps nothing.
    workload = small_model()
    machine = Machine(system_by_key("bs_dm"))
    stale = machine.run(workload).external
    current = machine.run(workload, eval_seed=2)
    fresh, _, _, _ = machine._allocate(Kernel(machine.geometry), workload, {})
    expected = fresh.translate_trace(stale.trace.va)
    kernel = Kernel(machine.geometry)
    space, _, _, _ = machine._allocate(kernel, workload, {})
    pa = _LAST_STREAM.physical(stale, kernel, space)
    np.testing.assert_array_equal(pa, expected)
    again = machine.run(workload, eval_seed=2)
    assert again.fingerprint() == current.fingerprint()


def test_a_failed_translation_keeps_no_pa(translate_calls, monkeypatch):
    workload = small_model()
    machine = Machine(system_by_key("bs_hm"))
    original = AddressSpace.translate_trace

    def fails(self, va):
        raise RuntimeError("translate failed")

    monkeypatch.setattr(AddressSpace, "translate_trace", fails)
    with pytest.raises(RuntimeError, match="translate failed"):
        machine.run(workload)
    monkeypatch.setattr(AddressSpace, "translate_trace", original)
    after = machine.run(workload)
    assert after.fingerprint() == cold(machine, workload).fingerprint()


def test_threads_sharing_the_holder_get_cold_results():
    """Runs on two streams, with and without SDAM, interleaved across
    more threads than cores: each pairs its stream with its own PA."""
    workload = small_model()
    cases = [
        (key, seed) for key in ("bs_dm", "bs_hm", "sdm_bsm") for seed in (1, 2)
    ]
    expected = {
        case: cold(Machine(system_by_key(case[0])), workload, eval_seed=case[1])
        .fingerprint()
        for case in cases
    }
    _LAST_STREAM.clear()
    got = []

    def worker(offset):
        for index in range(12):
            key, seed = cases[(offset + index) % len(cases)]
            result = Machine(system_by_key(key)).run(workload, eval_seed=seed)
            got.append(((key, seed), result.fingerprint()))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 4 * 12
    for case, fingerprint in got:
        assert fingerprint == expected[case], case
