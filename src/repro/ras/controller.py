"""The RAS controller: detect -> retire -> migrate -> verify.

Detection uses three independent signals, one per fault family:

* **ECC topology** (:class:`~repro.hbm.stats.DeviceHealth`): physical
  faults announce themselves as error clusters — one row, one bank, or
  most of a channel;
* **CMT shadow compare**: every driver write is mirrored into a shadow
  table, so an SRAM upset shows up as a live/shadow diff and rolls back
  from the shadow;
* **translation spot check**: a misprogrammed AMU crossbar applies a
  *valid but wrong* permutation — invisible to both signals above — so
  the scrubber compares live translations against the shadow-derived
  expectation.

Repair is software-defined remapping (:mod:`repro.ras.repair`): compose
a window permutation whose preimage of the faulty cube is retirable,
retire/relocate those pages, migrate the chunk's live data, and replay
the write journal through the healed translation.  A lost channel uses
the same machinery with the exact-channel cube — retiring
``1/num_channels`` of every chunk — and is reported as explicit
graceful degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.verification import audit_controller
from repro.errors import OutOfMemoryError
from repro.hbm.decode import decode_trace
from repro.ledger import Record
from repro.ras.repair import FaultCube, compose_repair, cube_for, preimage_pages
from repro.core.bitmatrix import BitOperator

__all__ = ["RASController", "RASReport"]


@dataclass
class RASReport(Record):
    """Structured outcome of a RAS campaign (or a sequence of scrubs)."""

    derived = ("ok",)

    seed: int = 0
    faults_injected: list = field(default_factory=list)
    detections: list = field(default_factory=list)
    events: list = field(default_factory=list)
    scrubs: int = 0
    machine_checks: int = 0
    lines_migrated: int = 0
    pages_retired: int = 0
    pages_relocated: int = 0
    repair_cost_ns: float = 0.0
    lines_written: int = 0
    lines_survived: int = 0
    lines_lost: int = 0
    degraded: bool = False
    dead_channels: list = field(default_factory=list)
    residual_slowdown: float = 1.0
    fingerprint_match: bool = True
    all_detected: bool = True
    all_repaired: bool = True

    @property
    def ok(self) -> bool:
        """Every fault detected and repaired/degraded, no silent loss."""
        return self.all_detected and self.all_repaired and self.fingerprint_match

    def summary(self) -> str:
        """Multi-line human-readable campaign summary."""
        lines = [
            f"RAS campaign (seed {self.seed}): "
            f"{len(self.faults_injected)} faults injected, "
            f"{sum(1 for d in self.detections if d['detected'])} detected, "
            f"{sum(1 for d in self.detections if d['repaired'])} "
            "repaired/degraded",
            f"  scrubs {self.scrubs}, machine checks {self.machine_checks}, "
            f"repair cost {self.repair_cost_ns / 1e3:.1f} us",
            f"  migrated {self.lines_migrated} lines, retired "
            f"{self.pages_retired} pages, relocated {self.pages_relocated}",
            f"  data: {self.lines_survived}/{self.lines_written} lines "
            f"survived, {self.lines_lost} lost (ECC-reported)",
            f"  residual slowdown {self.residual_slowdown:.2f}x"
            + (
                f", degraded (channels {sorted(self.dead_channels)} folded "
                "out)"
                if self.degraded
                else ""
            ),
            f"  fingerprint match over surviving space: "
            f"{self.fingerprint_match}",
        ]
        return "\n".join(lines)


class RASController:
    """Orchestrates detect -> retire -> migrate -> verify on one machine."""

    def __init__(self, machine, seed: int = 0):
        self.machine = machine
        self.rng = np.random.default_rng(seed ^ 0x5AD)
        self.quarantined: list[FaultCube] = []
        self.dead_channels: set[int] = set()
        self.events: list[dict] = []
        self.scrubs = 0
        self.repair_cost_ns = 0.0
        self.lines_migrated = 0
        self.pages_relocated = 0
        self.degraded = False
        self._hook_installed = False

    # -- shortcuts ---------------------------------------------------------
    @property
    def sdam(self):
        return self.machine.sdam

    @property
    def kernel(self):
        return self.machine.kernel

    @property
    def physical(self):
        return self.machine.kernel.physical

    @property
    def geometry(self):
        return self.machine.geometry

    def _event(self, action: str, **detail) -> dict:
        record = {"action": action, "access": self.machine.accesses, **detail}
        self.events.append(record)
        return record

    # -- the scrub loop ----------------------------------------------------
    def scrub(self, trigger: str = "patrol") -> list[dict]:
        """One detect/repair pass; returns the actions taken."""
        self.scrubs += 1
        before = len(self.events)
        healed_control = self._scrub_control_state(trigger)
        healed_physical = self._scrub_physical(trigger)
        if healed_control or healed_physical:
            cost = self.machine.replay_journal()
            self.repair_cost_ns += cost
            # Post-repair verification: the strict audit must pass now;
            # a failure here is a repair bug, not a fault, so let it
            # propagate.
            audit_controller(self.sdam, sample_chunks=4, strict=True)
            self._event("verified", trigger=trigger)
        self.machine.mark_clean_scrub()
        return self.events[before:]

    def _scrub_control_state(self, trigger: str) -> bool:
        """CMT shadow compare + AMU spot check.  Returns True if healed."""
        machine = self.machine
        sdam = self.sdam
        shadow = sdam.shadow_cmt
        healed = False
        delta = sdam.cmt.diff(shadow)
        if delta["entries"] or delta["configs"]:
            suspects = set(delta["entries"])
            for index in delta["configs"]:
                bound = np.nonzero(
                    shadow._chunk_table == np.uint16(index)
                )[0]
                suspects.update(int(c) for c in bound)
            repaired = sdam.cmt.restore_from(shadow)
            sdam.invalidate_caches()
            machine.poison_suspect_writes(suspects)
            self._event(
                "cmt-rollback",
                trigger=trigger,
                words_repaired=repaired,
                entries=delta["entries"],
                configs=delta["configs"],
            )
            healed = True
        # Spot check: the operator the datapath applies vs the operator
        # the (trusted) shadow configuration implies.  Catches a
        # misprogrammed crossbar applying a valid-but-wrong permutation.
        wrong = []
        sample = self.rng.integers(
            0, self.geometry.total_bytes, 64, dtype=np.uint64
        )
        for index in range(sdam.cmt.live_mappings):
            expected = sdam.amu.full_mapping(
                shadow.config_of(index), self.geometry
            )
            actual = sdam.operator_of(index)
            if not np.array_equal(
                np.asarray(actual.apply(sample)),
                np.asarray(expected.apply(sample)),
            ):
                wrong.append(index)
        if wrong:
            suspects = set()
            for index in wrong:
                bound = np.nonzero(
                    shadow._chunk_table == np.uint16(index)
                )[0]
                suspects.update(int(c) for c in bound)
            self.sdam.reprogram_crossbar()
            machine.poison_suspect_writes(suspects)
            self._event(
                "amu-reprogram", trigger=trigger, mapping_indices=wrong
            )
            healed = True
        return healed

    def _patrol_device(self) -> None:
        """Background read scrub of every live chunk's HA range.

        Real memory controllers patrol-scrub DRAM at idle priority so a
        fault is found even where demand traffic never reads — after a
        bank quarantine, for instance, the repaired mapping's channel
        bits are page-selected and a small working set may stop
        touching some channels entirely.  The scrubber works *below*
        translation (raw hardware addresses), so its coverage is
        independent of the current mappings; its traffic is modeled as
        free (idle-priority background reads).
        """
        geometry = self.geometry
        live = self.physical.live_chunks()
        if not live:
            return
        lines = np.arange(
            geometry.lines_per_chunk, dtype=np.uint64
        ) * np.uint64(geometry.line_bytes)
        ha = np.concatenate(
            [np.uint64(chunk.base_pa) + lines for chunk in live]
        )
        decoded = decode_trace(ha, self.machine.config)
        errors = self.machine._fault_mask(decoded)
        if errors.any():
            self.machine.health.record(decoded, errors)

    def _scrub_physical(self, trigger: str) -> bool:
        """Classify ECC topology and quarantine what it implicates."""
        self._patrol_device()
        health = self.machine.health
        suspects = health.suspects()
        if not suspects:
            return False
        healed = False
        for suspect in suspects:
            kind = suspect["kind"]
            if kind == "channel":
                healed |= self.degrade_channel(suspect["channel"], trigger)
            elif kind == "bank":
                healed |= self.repair_bank(
                    suspect["channel"], suspect["bank"], trigger
                )
            else:
                healed |= self.repair_row(
                    suspect["channel"],
                    suspect["bank"],
                    suspect["row"],
                    trigger,
                )
        health.reset()
        return healed

    # -- physical repairs --------------------------------------------------
    def _already_quarantined(self, cube: FaultCube) -> bool:
        return any(q.label == cube.label for q in self.quarantined)

    def repair_row(
        self, channel: int, bank: int, row: int, trigger: str = "patrol"
    ) -> bool:
        """Quarantine one stuck row: remap + migrate its single chunk."""
        cube = cube_for(
            self.machine.config,
            self.geometry,
            "row",
            channel=channel,
            bank=bank,
            row=row,
        )
        if self._already_quarantined(cube):
            return False
        self.quarantined.append(cube)
        self._install_hook()
        chunk = self.physical.chunk(cube.chunk_no)
        if chunk is not None:
            self._requarantine_chunk(chunk)
        self._event(
            "repair-row",
            trigger=trigger,
            channel=channel,
            bank=bank,
            row=row,
            chunk_no=cube.chunk_no,
            live=chunk is not None,
        )
        return True

    def repair_bank(
        self, channel: int, bank: int, trigger: str = "patrol"
    ) -> bool:
        """Quarantine a dead bank across every live chunk."""
        cube = cube_for(
            self.machine.config,
            self.geometry,
            "bank",
            channel=channel,
            bank=bank,
        )
        if self._already_quarantined(cube):
            return False
        self.quarantined.append(cube)
        self._install_hook()
        chunks = 0
        for chunk in self.physical.live_chunks():
            self._requarantine_chunk(chunk)
            chunks += 1
        self._event(
            "repair-bank",
            trigger=trigger,
            channel=channel,
            bank=bank,
            chunks=chunks,
        )
        return True

    def degrade_channel(self, channel: int, trigger: str = "patrol") -> bool:
        """Quarantine a lost channel: explicit graceful degradation.

        The exact-channel cube's preimage — ``1/num_channels`` of every
        chunk — is retired, so no allocatable address can select the
        dead channel.  Capacity shrinks accordingly; the event records
        it as degradation, not transparent repair.
        """
        if channel in self.dead_channels:
            return False
        cube = cube_for(
            self.machine.config, self.geometry, "channel", channel=channel
        )
        self.dead_channels.add(channel)
        self.degraded = True
        self.quarantined.append(cube)
        self._install_hook()
        chunks = 0
        for chunk in self.physical.live_chunks():
            self._requarantine_chunk(chunk)
            chunks += 1
        lost_fraction = 1.0 / self.machine.config.num_channels
        self._event(
            "degrade-channel",
            trigger=trigger,
            channel=channel,
            chunks=chunks,
            capacity_lost_fraction=lost_fraction,
        )
        return True

    # -- the retire/relocate/migrate core ----------------------------------
    def _requarantine_chunk(self, chunk) -> None:
        """Re-compose a chunk's mapping so every quarantined cube's
        preimage is retired, relocating live pages first."""
        cubes = [q for q in self.quarantined if q.applies_to(chunk.number)]
        if not cubes:
            return
        live_pages = set(chunk.live_page_offsets())
        perm, pages = compose_repair(
            self.geometry, cubes, self.rng, live_pages=live_pages
        )
        new_index = self.kernel.add_addr_map(perm)
        free_targets = [p for p in pages if p not in live_pages]
        self.physical.retire_pages(chunk.number, free_targets)
        for page in [p for p in pages if p in live_pages]:
            self._relocate_page(chunk, page)
        report = self.machine.migrator.migrate_chunk(
            chunk.number, new_index, on_copy=self.machine.copy_lines
        )
        self.lines_migrated += report.lines_copied
        self.repair_cost_ns += report.cost_ns

    def _relocate_page(self, chunk, page: int) -> None:
        """Move one live page off a to-be-retired frame, data included."""
        geometry = self.geometry
        frame_pa = chunk.base_pa + (page << geometry.page_bits)
        lines_per_page = geometry.page_bytes // geometry.line_bytes
        src_pa = np.uint64(frame_pa) + np.arange(
            lines_per_page, dtype=np.uint64
        ) * np.uint64(geometry.line_bytes)
        try:
            new_pa = self.kernel.relocate_frame(frame_pa)
        except OutOfMemoryError:
            # No spare capacity: the page cannot move, its data will be
            # reported lost (ECC) rather than silently corrupted.
            self._event(
                "relocation-oom", chunk_no=chunk.number, page=page
            )
            return
        if new_pa is None:
            return
        dst_pa = np.uint64(new_pa) + np.arange(
            lines_per_page, dtype=np.uint64
        ) * np.uint64(geometry.line_bytes)
        reads = self.sdam.translate(src_pa)
        writes = self.sdam.translate(dst_pa)
        self.machine.copy_lines(src_pa, reads, writes)
        copy_trace = np.stack([reads, writes], axis=1).reshape(-1)
        self.repair_cost_ns += self.machine.backend.simulate(
            copy_trace
        ).makespan_ns
        self.pages_relocated += 1

    def _install_hook(self) -> None:
        """Retire quarantined preimages in chunks acquired from now on."""
        if self._hook_installed:
            return
        self.physical.new_chunk_hook = self._prepare_new_chunk
        self._hook_installed = True

    def _prepare_new_chunk(self, chunk) -> None:
        cubes = [q for q in self.quarantined if q.applies_to(chunk.number)]
        if not cubes:
            return
        shadow = self.sdam.shadow_cmt
        index = shadow.mapping_index_of(chunk.number)
        operator = BitOperator.from_permutation(shadow.config_of(index))
        pages: set[int] = set()
        for cube in cubes:
            pages.update(preimage_pages(operator, cube, self.geometry))
        self.physical.retire_pages(chunk.number, sorted(pages))
