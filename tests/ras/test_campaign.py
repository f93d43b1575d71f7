"""End-to-end RAS campaign tests: the PR's acceptance criteria.

The heavyweight checks live here: a seeded campaign injecting every
fault kind must end with each fault repaired (or explicitly degraded)
and with the faulty machine's surviving contents bit-identical to a
never-faulted twin — zero silent corruption.
"""

import numpy as np
import pytest

from repro.core.chunks import ChunkGeometry
from repro.ras.campaign import (
    ALL_KINDS,
    RASMachine,
    run_campaign,
    small_ras_config,
)
from repro.ras.faults import DEVICE_HBM_ROW, DeviceFaultSpec


class TestAcceptance:
    def test_full_kind_campaign_is_clean(self):
        """Acceptance: >= 4 distinct fault kinds, all repaired, no
        silent corruption over the surviving address space."""
        result = run_campaign(seed=7, kinds=ALL_KINDS, quick=True)
        report = result.report
        assert result.ok, result.summary()
        kinds = {d["site"] for d in report.detections}
        assert len(kinds) >= 4
        assert report.all_detected and report.all_repaired
        assert report.fingerprint_match
        assert report.lines_migrated > 0
        assert report.pages_retired > 0
        # Losses (if any) are ECC-visible, never silent: accounted 1:1.
        assert report.lines_survived + report.lines_lost == (
            report.lines_written
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fingerprint_property_across_seeds(self, seed):
        """Property: for any seed, a completed repair leaves subsequent
        traffic's fingerprint identical to the never-faulted twin's
        over the surviving space."""
        result = run_campaign(seed=seed, kinds=ALL_KINDS, quick=True)
        assert result.report.fingerprint_match, result.summary()
        assert result.ok, result.summary()

    def test_campaign_is_deterministic(self):
        first = run_campaign(seed=3, kinds=("row", "cmt"), quick=True)
        second = run_campaign(seed=3, kinds=("row", "cmt"), quick=True)
        assert first.to_dict() == second.to_dict()

    def test_channel_loss_degrades_gracefully(self):
        result = run_campaign(seed=5, kinds=("channel",), quick=True)
        report = result.report
        assert result.ok, result.summary()
        assert report.degraded
        assert len(report.dead_channels) == 1
        assert report.residual_slowdown >= 1.0

    def test_row_only_campaign_needs_no_degradation(self):
        result = run_campaign(seed=2, kinds=("row",), quick=True)
        assert result.ok, result.summary()
        assert not result.report.degraded
        assert result.report.dead_channels == []


class TestRASMachine:
    def machine(self, seed=0):
        config = small_ras_config()
        machine = RASMachine(config=config, seed=seed)
        rng = np.random.default_rng(seed + 1)
        machine.add_mapping(rng.permutation(machine.geometry.window_bits))
        vma = machine.mmap(8 * machine.geometry.page_bytes, 1)
        lines = vma.length // machine.geometry.line_bytes
        va = np.uint64(vma.start) + np.arange(
            lines, dtype=np.uint64
        ) * np.uint64(machine.geometry.line_bytes)
        machine.write(va, np.arange(lines))
        return machine, va

    def test_reads_return_written_values(self):
        machine, va = self.machine()
        values, ecc, _stats = machine.read(va)
        assert not ecc.any()
        np.testing.assert_array_equal(values, np.arange(va.size))

    def test_physical_fault_reports_ecc_not_garbage(self):
        machine, va = self.machine()
        ha = machine.sdam.translate(
            machine.space.translate_trace(va[:1])
        )
        from repro.hbm.decode import decode_trace

        decoded = decode_trace(ha, machine.config)
        machine.inject(
            DeviceFaultSpec(
                site=DEVICE_HBM_ROW,
                channel=int(decoded.channel[0]),
                bank=int(decoded.bank[0]),
                row=int(decoded.row[0]),
            )
        )
        values, ecc, _stats = machine.read(va[:1])
        assert ecc[0]
        assert values[0] == -1

    def test_patrol_repairs_injected_row(self):
        machine, va = self.machine()
        ha = machine.sdam.translate(machine.space.translate_trace(va[:1]))
        from repro.hbm.decode import decode_trace

        decoded = decode_trace(ha, machine.config)
        machine.inject(
            DeviceFaultSpec(
                site=DEVICE_HBM_ROW,
                channel=int(decoded.channel[0]),
                bank=int(decoded.bank[0]),
                row=int(decoded.row[0]),
            )
        )
        machine.patrol()  # patrol scrub finds errors and escalates
        machine.patrol()
        actions = {e["action"] for e in machine.controller.events}
        assert "repair-row" in actions
        # After the repair no healthy line decodes to the stuck row.
        occupied = np.array(
            machine.storage.occupied_lines(), dtype=np.uint64
        )
        decoded_all = decode_trace(occupied, machine.config)
        bad = machine._fault_mask(decoded_all)
        assert not bad.any()

    def test_geometry_capacity_mismatch_rejected(self):
        from repro.errors import RASError

        with pytest.raises(RASError):
            RASMachine(
                config=small_ras_config(),
                geometry=ChunkGeometry(total_bytes=32 * 1024**2),
            )
