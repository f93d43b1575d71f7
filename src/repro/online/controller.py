"""The adaptive remapping controller: detect, decide, migrate — live.

Closes the online loop over the existing software-defined machinery:

1. **Detect** — every external-trace window feeds the decayed
   :class:`~repro.online.stream.StreamingBFRV`; the
   :class:`~repro.online.phase.PhaseDetector` compares the estimate
   against the BFRV that justified the current mapping.
2. **Decide** — on a phase event, a candidate window permutation is
   selected from the fresh estimate
   (:func:`~repro.core.bitshuffle.select_window_permutation`) and the
   :class:`~repro.online.policy.RemapPolicy` prices the switch.
3. **Migrate** — approved remaps register the candidate through the
   ordinary ``add_addr_map`` syscall path (the CMT interns duplicates,
   so returning to an earlier phase reuses its hardware index), then
   move every live chunk of the adapted group with
   :class:`~repro.mem.migration.ChunkMigrator` and reprogram the AMU
   crossbar.  A failure mid-group rolls the already-moved chunks back —
   the group is never left split across mappings.

Every transition is journalled (phase events, declines with the
policy's reason, remaps with their migration reports, failures with the
triggering fault) and all traffic is accounted in a
:class:`~repro.hbm.stats.RemapTraffic`.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitshuffle import select_window_permutation
from repro.errors import ProfilingError, ReproError
from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.stats import RemapTraffic
from repro.mem.kernel import Kernel
from repro.mem.migration import ChunkMigrator
from repro.online.phase import PhaseDetector
from repro.online.policy import (
    AMU_REPROGRAM_NS,
    CMT_WRITE_NS,
    RemapDecision,
    RemapPolicy,
)
from repro.online.stream import StreamingBFRV

__all__ = ["AdaptiveController"]

#: Per-window decay of the streaming BFRV estimate.
DECAY = 0.3
#: BFRV distance from the reference that counts as a new phase.
PHASE_THRESHOLD = 0.08
#: Consecutive over-threshold windows before a phase event fires.
PHASE_PERSISTENCE = 2


class AdaptiveController:
    """Drives online mapping adaptation for one chunk group.

    Parameters
    ----------
    kernel:
        An SDAM-enabled kernel whose chunks the controller may remap.
    mapping_id:
        The software mapping id whose chunk group is adapted.  It moves
        with the group: after a remap the controller follows the group
        to its new id.
    hbm:
        Device model used for migration costs and policy probes.
    on_copy:
        Optional ``(pa_lines, read_has, write_has)`` hook forwarded to
        every chunk migration — the RAS layer moves modeled device
        contents through it, and tests inject mid-copy faults.
    backend:
        Memory fidelity tier of the policy's benefit probes.

    The estimator decays by :data:`DECAY` per window and the detector
    fires at :data:`PHASE_THRESHOLD` held for :data:`PHASE_PERSISTENCE`
    windows.
    """

    def __init__(
        self,
        kernel: Kernel,
        mapping_id: int = 0,
        hbm: HBMConfig | None = None,
        on_copy=None,
        backend: str = "fast",
    ):
        if kernel.sdam is None:
            raise ProfilingError("adaptive remapping requires an SDAM kernel")
        self.kernel = kernel
        self.geometry = kernel.geometry
        self.hbm = hbm or hbm2_config()
        self.layout = self.hbm.layout()
        self.mapping_id = mapping_id
        low, high = self.geometry.window_slice()
        self.estimator = StreamingBFRV(
            num_bits=high - low, bit_offset=low, decay=DECAY
        )
        self.detector = PhaseDetector(
            threshold=PHASE_THRESHOLD, persistence=PHASE_PERSISTENCE
        )
        self.policy = RemapPolicy(self.hbm, self.geometry, backend=backend)
        self.migrator = ChunkMigrator(kernel, self.hbm)
        self.traffic = RemapTraffic()
        self.on_copy = on_copy
        self.journal: list[dict] = []
        self.windows_seen = 0
        self._windows_since_remap = 10**9  # no cooldown before first remap
        self._chunk_remap_counts: dict[int, int] = {}

    # -- introspection ------------------------------------------------------
    @property
    def current_perm(self) -> np.ndarray:
        """Window permutation currently programmed for the group."""
        return self.kernel.sdam.cmt.config_of(self.mapping_id)

    def _group_chunks(self) -> list[int]:
        group = self.kernel.physical.group(self.mapping_id)
        return sorted(chunk.number for chunk in group.chunks)

    def _live_lines(self) -> int:
        geometry = self.geometry
        lines_per_page = geometry.page_bytes // geometry.line_bytes
        total = 0
        for chunk_no in self._group_chunks():
            chunk = self.kernel.physical.chunk(chunk_no)
            total += len(chunk.live_page_offsets()) * lines_per_page
        return total

    def _journal(self, kind: str, **fields) -> dict:
        entry = {"window": self.windows_seen, "kind": kind, **fields}
        self.journal.append(entry)
        return entry

    # -- the loop body ------------------------------------------------------
    def observe(self, pa_window: np.ndarray) -> dict | None:
        """Fold one external-trace window in; remap when justified.

        Returns the journal entry for whatever the window triggered
        (``decline`` / ``remap`` / ``remap-failed``), or None when the
        phase was stable.
        """
        self.windows_seen += 1
        self._windows_since_remap += 1
        rates = self.estimator.update(pa_window)
        event = self.detector.observe(rates)
        if event is None:
            return None
        candidate = select_window_permutation(
            rates, self.layout, self.geometry
        )
        decision = self.policy.evaluate(
            pa_window,
            candidate,
            self.current_perm,
            windows_since_remap=self._windows_since_remap,
            live_lines=self._live_lines(),
            chunks=len(self._group_chunks()),
            chunk_remap_counts=self._chunk_remap_counts,
            degenerate=self.estimator.last_degenerate is not None,
        )
        if not decision.remap:
            # Accept the new phase as the current regime (unless we only
            # declined because of cooldown — then keep watching): without
            # re-anchoring, a long-lived phase we chose not to serve
            # would re-fire the detector forever.
            if decision.reason != "cooldown":
                self.detector.set_reference(rates)
            return self._journal(
                "decline",
                distance=event.distance,
                decision=decision.to_dict(),
            )
        return self._execute_remap(event, rates, candidate, decision)

    # -- remap execution ----------------------------------------------------
    def _execute_remap(
        self, event, rates: np.ndarray, candidate, decision: RemapDecision
    ) -> dict:
        sdam = self.kernel.sdam
        old_id = self.mapping_id
        new_id = self.kernel.add_addr_map(candidate)
        chunks = self._group_chunks()
        migrated: list = []
        try:
            for chunk_no in chunks:
                report = self.migrator.migrate_chunk(
                    chunk_no, new_id, on_copy=self.on_copy
                )
                migrated.append(report)
        except (ReproError, OSError) as fault:
            # migrate_chunk already rolled the failing chunk back; undo
            # the chunks that had moved so the group stays whole.
            # Programming errors propagate — a half-migrated group is
            # the honest state when the controller itself is buggy.
            for report in reversed(migrated):
                undo = self.migrator.migrate_chunk(report.chunk_no, old_id)
                self.traffic.rollback_migrations += 1
                self.traffic.record_migration(
                    undo, line_bytes=self.geometry.line_bytes
                )
            self.traffic.failed_remaps += 1
            return self._journal(
                "remap-failed",
                old_mapping=old_id,
                new_mapping=new_id,
                fault=str(fault),
                chunks_attempted=len(chunks),
                chunks_rolled_back=len(migrated),
                decision=decision.to_dict(),
            )
        # Commit: reprogram the crossbar configuration lanes and account.
        sdam.reprogram_crossbar()
        self.mapping_id = new_id
        self.traffic.remaps += 1
        self.traffic.cmt_writes += len(chunks)
        self.traffic.amu_reprograms += 1
        self.traffic.reprogram_ns += (
            len(chunks) * CMT_WRITE_NS + AMU_REPROGRAM_NS
        )
        for report in migrated:
            self.traffic.record_migration(
                report, line_bytes=self.geometry.line_bytes
            )
            self._chunk_remap_counts[report.chunk_no] = (
                self._chunk_remap_counts.get(report.chunk_no, 0) + 1
            )
        self._windows_since_remap = 0
        self.detector.set_reference(rates)
        return self._journal(
            "remap",
            old_mapping=old_id,
            new_mapping=new_id,
            distance=event.distance,
            chunks=[r.chunk_no for r in migrated],
            lines_copied=sum(r.lines_copied for r in migrated),
            migration_ns=sum(r.cost_ns for r in migrated),
            decision=decision.to_dict(),
        )

    # -- reporting ----------------------------------------------------------
    @property
    def remap_count(self) -> int:
        """Committed remaps so far."""
        return self.traffic.remaps

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.windows_seen} windows, {self.traffic.remaps} remaps "
            f"({self.traffic.failed_remaps} failed), "
            f"overhead {self.traffic.overhead_ns / 1e3:.1f} us"
        )
