"""The memory model of a finished run is freed without the cyclic GC.

A reference cycle through the kernel (bound-method callbacks held by
physical memory and the address spaces) keeps every run's chunks, buddy
allocators and page tables alive until a collection happens to run,
which inflates peak memory once little else allocates.
"""

import gc
import pickle

import pytest

from repro.core.chunks import ChunkGeometry, MiB
from repro.core.sdam import SDAMController
from repro.mem.kernel import Kernel
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.workloads import spec2006_workload


def collected_modules(action) -> set[str]:
    """Modules of the objects only the cyclic GC frees after ``action``."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return {type(obj).__module__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize(
    "system, engine",
    [("bs_dm", "cpu"), ("sdm_bsm_ml4", "cpu"), ("bs_hm", "accelerator")],
)
def test_machine_run_leaves_no_memory_model_cycles(system, engine):
    workload = spec2006_workload("mcf", total_accesses=4_000)

    def run():
        Machine(system_by_key(system), engine=engine).run(workload)

    leaked = {m for m in collected_modules(run) if m.startswith("repro.mem")}
    assert leaked == set()


def test_kernel_with_faults_still_pickles():
    geometry = ChunkGeometry(total_bytes=32 * MiB)
    kernel = Kernel(geometry, sdam=SDAMController(geometry))
    space = kernel.spawn()
    mapping_id = kernel.add_addr_map(range(geometry.window_bits))
    vma = kernel.sys_mmap(space, 1 * MiB, mapping_id)
    space.translate(vma.start)
    clone = pickle.loads(pickle.dumps(kernel))
    new_space = clone.spaces[0]
    new_space.translate(vma.start + geometry.page_bytes)
    assert new_space.total_faults == 2
    assert clone.physical is new_space._fault_handler.physical
