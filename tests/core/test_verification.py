"""Tests for the Section 4 correctness auditors."""

import numpy as np
import pytest

from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry, MiB
from repro.core.mapping import identity_mapping
from repro.core.sdam import SDAMController
from repro.core.verification import (
    VerificationReport,
    audit_controller,
    verify_mapping,
)
from repro.errors import MappingError, MappingIntegrityError

SMALL = ChunkGeometry(total_bytes=64 * MiB)


class TestReport:
    def test_passing_report(self):
        report = VerificationReport()
        report.check(True, "fine")
        assert report.ok
        report.raise_if_failed()

    def test_failing_report(self):
        report = VerificationReport()
        report.check(False, "broken invariant")
        assert not report.ok
        with pytest.raises(MappingError):
            report.raise_if_failed()

    def test_repr(self):
        report = VerificationReport()
        report.check(True, "x")
        assert "1 checks" in repr(report)


class TestVerifyMapping:
    def test_identity_passes(self):
        assert verify_mapping(identity_mapping(20)).ok

    def test_random_permutation_passes(self):
        rng = np.random.default_rng(3)
        mapping = BitOperator.from_permutation(rng.permutation(24))
        assert verify_mapping(mapping).ok

    def test_linear_mapping_passes(self):
        matrix = np.eye(20, dtype=np.uint8)
        matrix[6, 15] = 1
        assert verify_mapping(BitOperator(matrix)).ok

    def test_singular_mapping_fails(self):
        matrix = np.eye(20, dtype=np.uint8)
        matrix[7] = matrix[6]  # HA bits 6 and 7 copy one PA bit
        report = verify_mapping(BitOperator(matrix))
        assert not report.ok
        assert {r.code for r in report.records} == {"bijectivity"}


class TestAuditController:
    def test_fresh_controller_passes(self):
        controller = SDAMController(SMALL)
        report = audit_controller(controller)
        assert report.ok
        assert report.checks_run > 0

    def test_configured_controller_passes(self):
        controller = SDAMController(SMALL)
        for shift in range(1, 6):
            mapping_id = controller.register_mapping(
                np.roll(np.arange(SMALL.window_bits), shift)
            )
            controller.assign_chunk(shift, mapping_id)
        report = audit_controller(controller, sample_chunks=16)
        assert report.ok

    def test_detects_corrupted_cmt(self):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(
            np.roll(np.arange(SMALL.window_bits), 4)
        )
        controller.assign_chunk(0, mapping_id)
        # Corrupt the second-level table behind the controller's back.
        controller.cmt._configs[mapping_id] = np.zeros(
            SMALL.window_bits, dtype=np.int64
        )
        report = audit_controller(controller, sample_chunks=32)
        assert not report.ok

    def test_detects_mapping_leaking_outside_window(self, monkeypatch):
        controller = SDAMController(SMALL)
        controller.register_mapping(np.roll(np.arange(SMALL.window_bits), 1))
        # A datapath operator that swaps a line-offset bit with a
        # chunk-number bit: still a permutation, but it leaves the window.
        source = np.arange(SMALL.address_bits)
        source[[0, SMALL.address_bits - 1]] = [SMALL.address_bits - 1, 0]
        leaky = BitOperator.from_permutation(source)
        monkeypatch.setattr(controller, "operator_of", lambda index: leaky)
        with pytest.raises(MappingIntegrityError) as excinfo:
            audit_controller(controller, strict=True)
        assert "leaks outside the chunk window" in str(excinfo.value)
        assert excinfo.value.code == "cmt-config"


class TestStrictMode:
    def corrupted_controller(self):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(
            np.roll(np.arange(SMALL.window_bits), 4)
        )
        controller.assign_chunk(0, mapping_id)
        controller.cmt._configs[mapping_id] = np.zeros(
            SMALL.window_bits, dtype=np.int64
        )
        return controller

    def test_strict_audit_raises_structured_error(self):
        controller = self.corrupted_controller()
        with pytest.raises(MappingIntegrityError) as excinfo:
            audit_controller(controller, sample_chunks=32, strict=True)
        error = excinfo.value
        assert error.code == "cmt-config"
        assert error.mapping_index == 1
        assert isinstance(error, MappingError)  # catchable as the base

    def test_strict_audit_passes_healthy_state(self):
        controller = SDAMController(SMALL)
        report = audit_controller(controller, strict=True)
        assert report.ok

    def test_strict_verify_mapping_flags_bijectivity(self):
        broken = BitOperator(np.zeros((12, 12), dtype=np.uint8))  # all -> 0
        with pytest.raises(MappingIntegrityError) as excinfo:
            verify_mapping(broken, strict=True)
        assert excinfo.value.code == "bijectivity"

    def test_failure_records_convert_to_errors(self):
        report = VerificationReport()
        report.check(False, "bad word", code="cmt-binding", chunk_no=7)
        error = report.records[0].as_error()
        assert isinstance(error, MappingIntegrityError)
        assert error.code == "cmt-binding"
        assert error.chunk_no == 7
