"""Chunk remapping and live migration.

Section 4: the OS "maintains pools of memory for each address mapping,
and only reconfigures when memory is reclaimed or more memory with a
specific mapping is requested".  Reconfiguring a *free* chunk is a pure
CMT write (``PhysicalMemory.acquire_chunk``); reconfiguring a chunk with
live data additionally requires physically moving every allocated line
from its old hardware location to the one the new mapping assigns — the
cost this module models, so policies can decide when a remap amortises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AllocationError, CMTError, ReproError
from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.fastmodel import WindowModel
from repro.mem.kernel import Kernel

__all__ = ["MigrationReport", "ChunkMigrator"]


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one chunk migration."""

    chunk_no: int
    old_mapping: int
    new_mapping: int
    lines_copied: int
    cost_ns: float


class ChunkMigrator:
    """Remaps chunks, moving live data when necessary."""

    def __init__(self, kernel: Kernel, hbm: HBMConfig | None = None):
        if kernel.sdam is None:
            raise CMTError("migration requires an SDAM-enabled kernel")
        self.kernel = kernel
        self.hbm = hbm or hbm2_config()
        self._model = WindowModel(self.hbm, max_inflight=64)

    # -- live chunks: data must move -----------------------------------------
    def _allocated_lines(self, chunk) -> np.ndarray:
        """PAs of every live (data-bearing) cache line in the chunk.

        Retired pages are marked used in the chunk but carry no data,
        so they are excluded from the copy.
        """
        geometry = self.kernel.geometry
        lines_per_page = geometry.page_bytes // geometry.line_bytes
        pages = chunk.live_page_offsets()
        if not pages:
            return np.zeros(0, dtype=np.uint64)
        offsets = []
        for page in pages:
            start = page * lines_per_page
            offsets.append(
                np.arange(start, start + lines_per_page, dtype=np.uint64)
            )
        line_index = np.concatenate(offsets)
        return np.uint64(chunk.base_pa) + line_index * np.uint64(
            geometry.line_bytes
        )

    def migrate_chunk(
        self,
        chunk_no: int,
        new_mapping_id: int,
        on_copy=None,
    ) -> MigrationReport:
        """Switch a live chunk to a new mapping, copying its data.

        Every allocated line is read through the old mapping and
        written through the new one (the HA locations differ), after
        which the CMT entry flips.  The returned report carries the
        simulated copy cost so callers can weigh it against expected
        future bandwidth gains.

        ``on_copy(pa_lines, read_has, write_has)``, when given, performs
        the actual data movement (the RAS layer moves modeled device
        contents through it).  If it raises a library error
        (:class:`~repro.errors.ReproError`) or an :class:`OSError`, the
        CMT entry is rolled back to the old mapping before the exception
        propagates, so a failed mid-copy migration never leaves the
        chunk half-switched.  Programming errors (``TypeError``...)
        propagate as-is — they indicate a bug, not a copy fault, and
        masking them behind a tidy rollback would hide the real state.
        """
        sdam = self.kernel.sdam
        physical = self.kernel.physical
        chunk = physical._chunks.get(chunk_no)
        if chunk is None:
            raise AllocationError(f"chunk {chunk_no} is not live")
        old_index = sdam.cmt.mapping_index_of(chunk_no)
        if new_mapping_id == old_index:
            return MigrationReport(chunk_no, old_index, new_mapping_id, 0, 0.0)
        pa_lines = self._allocated_lines(chunk)
        if pa_lines.size:
            reads = sdam.translate(pa_lines)  # HAs under the old mapping
            sdam.assign_chunk(chunk_no, new_mapping_id)
            try:
                writes = sdam.translate(pa_lines)  # HAs under the new mapping
                if on_copy is not None:
                    on_copy(pa_lines, reads, writes)
                copy_trace = np.stack([reads, writes], axis=1).reshape(-1)
                cost = self._model.simulate(copy_trace).makespan_ns
            except (ReproError, OSError):
                sdam.assign_chunk(chunk_no, old_index)
                raise
        else:
            sdam.assign_chunk(chunk_no, new_mapping_id)
            cost = 0.0
        # Keep the software-side group bookkeeping consistent.
        if chunk.mapping_id is not None and chunk.mapping_id != new_mapping_id:
            physical.group(chunk.mapping_id).remove(chunk)
            physical.group(new_mapping_id).add(chunk)
        return MigrationReport(
            chunk_no=chunk_no,
            old_mapping=old_index,
            new_mapping=new_mapping_id,
            lines_copied=int(pa_lines.size),
            cost_ns=float(cost),
        )
