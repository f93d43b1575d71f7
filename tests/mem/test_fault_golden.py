"""Golden digests of the memory-model state that first-touch faults leave.

Each case runs ``AddressSpace.translate_trace`` over a fixed stream and
hashes what the fault path wrote: the page table, the frame owners, the
live chunks in acquisition order (with mapping id, free count, cursor,
live and retired pages), the chunk groups, the CMT chunk->mapping table
and every VMA's fault count.  Any change to the order in which frames
are handed out, chunks are acquired or the CMT is programmed moves a
digest.  The cases cover the ``mcf`` CPU stream under BS+DM and
SDM+BSM+ML(4), the accelerator ``hashjoin`` stream, a kernel whose
new-chunk hook retires pages in every fresh chunk (as RAS does), and an
munmap-then-refault sequence.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.chunks import ChunkGeometry, MiB
from repro.core.sdam import SDAMController
from repro.mem.kernel import Kernel
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.workloads import HashJoinWorkload, spec2006_workload


def memory_state_digest(kernels) -> str:
    """sha256 over the fault-visible state of each kernel, in order."""
    digest = hashlib.sha256()

    def feed(label, value) -> None:
        digest.update(f"{label}={value!r}\n".encode())

    for kernel in kernels:
        physical = kernel.physical
        for space in kernel.spaces:
            feed("pid", space.pid)
            feed("page_table", space.page_table())
            feed(
                "vmas",
                [(v.start, v.end, v.mapping_id, v.name, v.faults) for v in space.vmas],
            )
            feed("total_faults", space.total_faults)
        feed("frame_owner", physical.frame_owners())
        feed(
            "chunks",
            [
                (
                    chunk.number,
                    chunk.mapping_id,
                    chunk.free_pages,
                    chunk._cursor,
                    chunk.live_page_offsets(),
                    sorted(chunk.retired_pages),
                )
                for chunk in physical._chunks.values()
            ],
        )
        feed(
            "groups",
            [
                (mapping_id, [chunk.number for chunk in group.chunks])
                for mapping_id, group in sorted(physical._groups.items())
            ],
        )
        feed("free_chunks", list(physical._free_chunks))
        feed(
            "counters",
            (
                physical.chunks_acquired,
                physical.chunks_released,
                physical.pages_retired,
            ),
        )
        if kernel.sdam is not None:
            feed("cmt", kernel.sdam.cmt._chunk_table.tolist())
            feed("driver_writes", kernel.sdam.cmt.driver_writes)
    return digest.hexdigest()[:16]


def machine_kernels(monkeypatch, system: str, engine: str, workload) -> list:
    """Every kernel a ``Machine.run`` spawns a process on, in order."""
    kernels = []
    spawn = Kernel.spawn

    def recording_spawn(kernel):
        kernels.append(kernel)
        return spawn(kernel)

    monkeypatch.setattr(Kernel, "spawn", recording_spawn)
    Machine(system_by_key(system), engine=engine).run(workload)
    return kernels


GEOMETRY = ChunkGeometry(total_bytes=64 * MiB)
PAGE = GEOMETRY.page_bytes


def sdam_kernel() -> tuple[Kernel, object, list[int]]:
    kernel = Kernel(GEOMETRY, sdam=SDAMController(GEOMETRY))
    rng = np.random.default_rng(7)
    ids = [
        kernel.add_addr_map(rng.permutation(GEOMETRY.window_bits))
        for _ in range(3)
    ]
    return kernel, kernel.spawn(), ids


def touch(space, vma, rng, count: int) -> None:
    """Translate ``count`` random addresses of ``vma``, repeats included."""
    offsets = rng.integers(0, vma.length, count, dtype=np.uint64)
    space.translate_trace(np.uint64(vma.start) + offsets)


def retiring_kernel() -> list:
    """Every fresh chunk loses its colour-start page and a few others."""
    kernel, space, ids = sdam_kernel()
    physical = kernel.physical
    pages = GEOMETRY.pages_per_chunk

    def hook(chunk) -> None:
        start = chunk.rotation_pages
        offsets = {start, (start + 1) % pages, (start + 7) % pages}
        offsets.update(range(chunk.number % 5, pages, 97))
        physical.retire_pages(chunk.number, sorted(offsets))

    physical.new_chunk_hook = hook
    rng = np.random.default_rng(11)
    vmas = [
        kernel.sys_mmap(space, 3 * MiB, ids[0], "a"),
        kernel.sys_mmap(space, 1 * MiB, ids[1], "b"),
        kernel.sys_mmap(space, 2 * MiB + 5 * PAGE, ids[0], "c"),
    ]
    for vma in vmas:
        touch(space, vma, rng, 4_000)
    every_page = [
        np.uint64(v.start) + np.arange(0, v.length, PAGE, dtype=np.uint64)
        for v in vmas
    ]
    space.translate_trace(np.concatenate(every_page))
    return [kernel]


def refault_kernel() -> list:
    """Fault, munmap, mmap again and refault, with resident pages mixed in."""
    kernel, space, ids = sdam_kernel()
    rng = np.random.default_rng(13)
    a = kernel.sys_mmap(space, 2 * MiB, ids[0], "a")
    b = kernel.sys_mmap(space, 3 * MiB, ids[1], "b")
    c = kernel.sys_mmap(space, 1 * MiB, ids[0], "c")
    for vma in (a, b, c):
        touch(space, vma, rng, 3_000)
    kernel.sys_munmap(space, a)
    d = kernel.sys_mmap(space, 4 * MiB, ids[0], "d")
    e = kernel.sys_mmap(space, 512 * 1024, ids[2], "e")
    mixed = np.concatenate(
        [
            np.uint64(v.start) + rng.integers(0, v.length, 2_500, dtype=np.uint64)
            for v in (b, c, d, e)
        ]
    )
    space.translate_trace(rng.permutation(mixed))
    kernel.sys_munmap(space, c)
    kernel.sys_munmap(space, e)
    f = kernel.sys_mmap(space, 3 * MiB, ids[2], "f")
    for vma in (d, f, b):
        touch(space, vma, rng, 2_000)
    space.translate(f.start + 3 * PAGE + 5)
    return [kernel]


CASES = {
    "mcf-bs_dm": lambda mp: machine_kernels(
        mp, "bs_dm", "cpu", spec2006_workload("mcf", total_accesses=48_000)
    ),
    "mcf-sdm_bsm_ml4": lambda mp: machine_kernels(
        mp, "sdm_bsm_ml4", "cpu", spec2006_workload("mcf", total_accesses=48_000)
    ),
    "hashjoin-sdm_bsm_ml4": lambda mp: machine_kernels(
        mp, "sdm_bsm_ml4", "accelerator", HashJoinWorkload()
    ),
    "ras-retiring-hook": lambda _mp: retiring_kernel(),
    "munmap-refault": lambda _mp: refault_kernel(),
}

GOLDEN = {
    "mcf-bs_dm": "f3eec2cda54cd24f",
    "mcf-sdm_bsm_ml4": "4030e9a815a59e51",
    "hashjoin-sdm_bsm_ml4": "8f349c88c2ce1708",
    "ras-retiring-hook": "0103c517ca604b60",
    "munmap-refault": "83ab5995d530d2c3",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_state_matches_golden(case, monkeypatch):
    kernels = CASES[case](monkeypatch)
    assert memory_state_digest(kernels) == GOLDEN[case]
