"""An engine's external stream shares no memory with its input traces.

``Machine`` marks every returned stream read-only and hands it to each
run that repeats it, so an engine must never pass a caller's array
through: freezing it would freeze the caller's trace, and a caller that
later edited its trace would edit the stream.  Workload threads are
strided views of one merged trace, so the several-thread cases use
such views.
"""

import numpy as np
import pytest

from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace

ENGINES = {
    "cpu": CPUModel,
    "accelerator": AcceleratorModel,
    "accelerator-no-scratch": lambda: AcceleratorModel(scratch_bytes=0),
}


def thread_traces(threads: int) -> list[AccessTrace]:
    rng = np.random.default_rng(threads)
    n = 4000 * threads
    merged = AccessTrace(
        va=rng.integers(0, 1 << 24, n).astype(np.uint64) << np.uint64(6),
        is_write=rng.random(n) < 0.3,
        variable=rng.integers(0, 5, n),
    )
    if threads == 1:
        return [merged]
    return [
        AccessTrace(
            va=merged.va[t::threads],
            is_write=merged.is_write[t::threads],
            variable=merged.variable[t::threads],
        )
        for t in range(threads)
    ]


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_no_returned_array_shares_memory_with_an_input(engine, threads):
    traces = thread_traces(threads)
    result = ENGINES[engine]().external_trace(traces)
    assert len(result.trace) > 0
    inputs = [
        getattr(trace, name)
        for trace in traces
        for name in ("va", "is_write", "variable")
    ]
    for name in ("va", "is_write", "variable"):
        array = getattr(result.trace, name)
        for other in inputs:
            assert not np.may_share_memory(array, other), name
