"""Tests for the adaptive controller: hysteresis, remap, rollback."""

import numpy as np
import pytest

from repro.core.chunks import ChunkGeometry
from repro.core.sdam import SDAMController
from repro.errors import DeviceFaultError, ProfilingError
from repro.ras.faults import DEVICE_HBM_BANK
from repro.hbm.config import hbm2_config
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.online.controller import AdaptiveController
from repro.online.policy import COOLDOWN_WINDOWS
from repro.workloads.synthetic import PhaseShiftWorkload

WINDOW = 2048


@pytest.fixture(scope="module")
def hbm():
    return hbm2_config()


@pytest.fixture(scope="module")
def geometry(hbm):
    return ChunkGeometry(total_bytes=hbm.total_bytes)


def build_stack(workload, geometry, seed=0):
    """Boot an SDAM kernel, allocate the workload, return its PA trace."""
    sdam = SDAMController(geometry)
    kernel = Kernel(geometry, sdam=sdam)
    space = kernel.spawn()
    allocator = MappingAwareAllocator(kernel, space)
    base = {
        spec.name: allocator.malloc(spec.size_bytes, mapping_id=0, tag=spec.name)
        for spec in workload.variables()
    }
    trace = workload.trace(base, input_seed=seed)[0]
    return kernel, space.translate_trace(trace.va)


def feed(controller, pa):
    entries = []
    for start in range(0, pa.size, WINDOW):
        entry = controller.observe(pa[start : start + WINDOW])
        if entry is not None:
            entries.append(entry)
    return entries


def test_requires_sdam_kernel(geometry):
    with pytest.raises(ProfilingError):
        AdaptiveController(Kernel(geometry))


def test_stationary_trace_never_remaps(hbm, geometry):
    """The hysteresis guarantee: a single-phase trace triggers nothing
    at all — no remaps, no declines, no journal entries."""
    workload = PhaseShiftWorkload(
        buffer_bytes=2 * 1024 * 1024,
        accesses_per_phase=WINDOW * 16,
        phases=("stream",),
    )
    kernel, pa = build_stack(workload, geometry)
    controller = AdaptiveController(kernel, mapping_id=0, hbm=hbm)
    feed(controller, pa)
    assert controller.remap_count == 0
    assert controller.traffic.failed_remaps == 0
    assert controller.journal == []
    assert controller.mapping_id == 0


def test_phase_shift_commits_live_remap(hbm, geometry):
    workload = PhaseShiftWorkload(
        buffer_bytes=2 * 1024 * 1024,
        accesses_per_phase=WINDOW * 12,
        phases=("stream", "tiled"),
    )
    kernel, pa = build_stack(workload, geometry)
    controller = AdaptiveController(kernel, mapping_id=0, hbm=hbm)
    feed(controller, pa)
    remaps = [e for e in controller.journal if e["kind"] == "remap"]
    assert len(remaps) >= 1
    assert controller.traffic.failed_remaps == 0
    # The controller followed the group to its new mapping id ...
    assert controller.mapping_id != 0
    assert remaps[0]["old_mapping"] == 0
    assert remaps[0]["new_mapping"] == controller.mapping_id
    # ... the CMT agrees for every chunk of the group ...
    for chunk in kernel.physical.group(controller.mapping_id).chunks:
        assert (
            kernel.sdam.cmt.mapping_index_of(chunk.number)
            == controller.mapping_id
        )
    # ... and the data movement was accounted.
    assert remaps[0]["lines_copied"] > 0
    assert controller.traffic.lines_copied > 0
    assert controller.traffic.bytes_moved > 0
    assert controller.traffic.amu_reprograms >= 1
    assert controller.traffic.overhead_ns > 0


def test_cooldown_rate_limits_remaps(hbm, geometry):
    """Immediately after a remap, further events only decline with the
    cooldown reason — the reference is deliberately not re-anchored."""
    workload = PhaseShiftWorkload(
        buffer_bytes=2 * 1024 * 1024,
        accesses_per_phase=WINDOW * 12,
        phases=("stream", "tiled"),
    )
    kernel, pa = build_stack(workload, geometry)
    controller = AdaptiveController(kernel, mapping_id=0, hbm=hbm)
    feed(controller, pa)
    remap_windows = [
        e["window"] for e in controller.journal if e["kind"] == "remap"
    ]
    for entry in controller.journal:
        if entry["kind"] != "remap":
            continue
        for other in controller.journal:
            if (
                other["kind"] == "remap"
                and other["window"] > entry["window"]
            ):
                assert other["window"] - entry["window"] >= COOLDOWN_WINDOWS
    assert remap_windows  # the scenario did remap at least once


def test_rollback_on_midmigration_fault(hbm, geometry):
    """A device fault on the second chunk's copy must roll the first
    chunk back: the group is never left split across mappings."""
    workload = PhaseShiftWorkload(
        buffer_bytes=4 * 1024 * 1024,  # two chunks in the group
        accesses_per_phase=WINDOW * 12,
        phases=("stream", "tiled"),
    )
    kernel, pa = build_stack(workload, geometry)

    copies = {"count": 0}

    def faulty_copy(pa_lines, reads, writes):
        copies["count"] += 1
        if copies["count"] == 2:
            raise DeviceFaultError(
                f"injected {DEVICE_HBM_BANK} fault mid-copy"
            )

    controller = AdaptiveController(
        kernel, mapping_id=0, hbm=hbm, on_copy=faulty_copy
    )
    for start in range(0, pa.size, WINDOW):
        entry = controller.observe(pa[start : start + WINDOW])
        if entry is not None and entry["kind"] == "remap-failed":
            break  # inspect the rolled-back state before any retry

    failures = [
        e for e in controller.journal if e["kind"] == "remap-failed"
    ]
    assert len(failures) >= 1
    first = failures[0]
    assert DEVICE_HBM_BANK in first["fault"]
    assert first["chunks_attempted"] == 2
    assert first["chunks_rolled_back"] == 1
    # The mapping did not move and the group is whole under it.
    assert controller.mapping_id == 0
    group = kernel.physical.group(0)
    assert len(group.chunks) == 2
    for chunk in group.chunks:
        assert kernel.sdam.cmt.mapping_index_of(chunk.number) == 0
    # Accounting: a failed remap is not a remap, but its rollback
    # traffic is real.
    assert controller.traffic.failed_remaps == len(failures)
    assert controller.traffic.rollback_migrations >= 1
    assert controller.traffic.bytes_moved > 0


def test_programming_error_escapes_remap_handler(hbm, geometry):
    """A TypeError in the copy callback is a bug, not a device fault:
    it must propagate out of ``observe`` rather than be journalled as
    a tidy ``remap-failed`` entry."""
    workload = PhaseShiftWorkload(
        buffer_bytes=2 * 1024 * 1024,
        accesses_per_phase=WINDOW * 12,
        phases=("stream", "tiled"),
    )
    kernel, pa = build_stack(workload, geometry)

    def buggy_copy(pa_lines, reads, writes):
        return None + 1  # deliberate TypeError

    controller = AdaptiveController(
        kernel, mapping_id=0, hbm=hbm, on_copy=buggy_copy
    )
    with pytest.raises(TypeError):
        feed(controller, pa)
    assert controller.traffic.failed_remaps == 0
    assert not [
        e for e in controller.journal if e["kind"] == "remap-failed"
    ]


def test_recovers_after_transient_fault(hbm, geometry):
    """Once the injected fault clears, the controller retries on the
    next phase event and commits."""
    workload = PhaseShiftWorkload(
        buffer_bytes=2 * 1024 * 1024,
        accesses_per_phase=WINDOW * 12,
        phases=("stream", "tiled"),
    )
    kernel, pa = build_stack(workload, geometry)

    copies = {"count": 0}

    def transient(pa_lines, reads, writes):
        copies["count"] += 1
        if copies["count"] == 1:
            raise DeviceFaultError(
                f"injected {DEVICE_HBM_BANK} fault mid-copy"
            )

    controller = AdaptiveController(
        kernel, mapping_id=0, hbm=hbm, on_copy=transient
    )
    feed(controller, pa)
    assert controller.traffic.failed_remaps >= 1
    assert controller.traffic.remaps >= 1
    assert controller.mapping_id != 0


def test_summary(hbm, geometry):
    workload = PhaseShiftWorkload(
        buffer_bytes=2 * 1024 * 1024,
        accesses_per_phase=WINDOW * 4,
        phases=("stream",),
    )
    kernel, pa = build_stack(workload, geometry)
    controller = AdaptiveController(kernel, mapping_id=0, hbm=hbm)
    feed(controller, pa)
    assert "windows, 0 remaps" in controller.summary()
