"""Tests for BFRV distances and the phase-change detector."""

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.online.phase import PhaseDetector, bfrv_distance


class TestDistance:
    def test_l1_is_mean_abs_difference(self):
        a = np.array([0.0, 0.5, 1.0])
        b = np.array([0.5, 0.5, 0.0])
        assert bfrv_distance(a, b) == pytest.approx(0.5)

    def test_identical_vectors_at_zero(self):
        a = np.linspace(0, 1, 8)
        assert bfrv_distance(a, a) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProfilingError):
            bfrv_distance(np.zeros(3), np.zeros(4))


class TestPhaseDetector:
    def test_first_observation_becomes_reference(self):
        detector = PhaseDetector(threshold=0.05, persistence=1)
        rates = np.array([0.9, 0.1, 0.0])
        assert detector.observe(rates) is None
        np.testing.assert_array_equal(detector.reference, rates)

    def test_stationary_never_fires(self):
        detector = PhaseDetector(threshold=0.05, persistence=2)
        rng = np.random.default_rng(0)
        base = np.array([0.8, 0.4, 0.1, 0.0])
        for _ in range(50):
            noisy = base + rng.normal(0, 0.005, base.size)
            assert detector.observe(noisy) is None
        assert detector.events == []

    def test_persistence_gates_single_window_noise(self):
        detector = PhaseDetector(threshold=0.1, persistence=2)
        base = np.array([0.5, 0.5])
        far = np.array([0.0, 1.0])
        detector.observe(base)  # reference
        assert detector.observe(far) is None  # streak 1 of 2
        assert detector.observe(base) is None  # dip resets the streak
        assert detector.observe(far) is None  # streak 1 again
        event = detector.observe(far)  # streak 2 -> fire
        assert event is not None
        assert event.streak == 2
        assert event.distance == pytest.approx(0.5)
        assert detector.events == [event]

    def test_keeps_firing_until_reanchored(self):
        detector = PhaseDetector(threshold=0.1, persistence=2)
        base = np.array([0.5, 0.5])
        far = np.array([0.0, 1.0])
        detector.observe(base)
        fired = [detector.observe(far) for _ in range(6)]
        assert sum(event is not None for event in fired) == 3

    def test_reanchor_silences_the_new_phase(self):
        detector = PhaseDetector(threshold=0.1, persistence=1)
        base = np.array([0.5, 0.5])
        far = np.array([0.0, 1.0])
        detector.observe(base)
        assert detector.observe(far) is not None
        detector.set_reference(far)
        for _ in range(10):
            assert detector.observe(far) is None

    def test_invalid_params(self):
        with pytest.raises(ProfilingError):
            PhaseDetector(threshold=0.0)
        with pytest.raises(ProfilingError):
            PhaseDetector(persistence=0)
