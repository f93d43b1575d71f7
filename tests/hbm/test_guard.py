"""Tests for the cross-tier divergence guard (:mod:`repro.hbm.guard`).

The guard's contract: a healthy primary passes through untouched (same
stats, report attached), a diverging primary is either demoted to the
reference tier or raises a structured error — never silently wrong —
and the whole decision is deterministic and picklable.
"""

import pickle

import numpy as np
import pytest

from repro.errors import BackendDivergenceError, ConfigError
from repro.faults import FaultPlan
from repro.faults.sites import BACKEND_DIVERGENCE
from repro.hbm import GuardedBackend, TierFactory, hbm2_config
from repro.hbm.decode import DecodedTrace, decode_trace

CONFIG = hbm2_config()


def _trace(n: int = 1024, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = CONFIG.total_bytes // CONFIG.line_bytes
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(
        CONFIG.line_bytes
    )


def _chunks(decoded: DecodedTrace, step: int):
    for lo in range(0, len(decoded), step):
        hi = min(lo + step, len(decoded))
        yield DecodedTrace(
            channel=decoded.channel[lo:hi],
            bank=decoded.bank[lo:hi],
            row=decoded.row[lo:hi],
            column=decoded.column[lo:hi],
            global_bank=decoded.global_bank[lo:hi],
        )


def _guard(**kwargs) -> GuardedBackend:
    primary = TierFactory("vector", CONFIG, max_inflight=64)
    reference = TierFactory("event", CONFIG, max_inflight=64)
    return GuardedBackend(
        primary(),
        primary,
        reference,
        **kwargs,
    )


class TestPassthrough:
    def test_matches_unguarded_primary_and_attaches_report(self):
        trace = _trace()
        guard = _guard(sample=0.5)
        plain = TierFactory("vector", CONFIG, max_inflight=64)()
        stats = guard.simulate(trace)
        expected = plain.simulate(trace)
        assert stats.makespan_ns == expected.makespan_ns
        assert stats.requests == expected.requests
        report = guard.last_health.guard
        assert report is not None
        assert not report["diverged"]
        assert report["checks"], "at least one chunk must be sampled"
        assert not guard.demoted

    def test_sampling_is_deterministic(self):
        decoded = decode_trace(_trace(2048), CONFIG)
        picked = [
            _guard(sample=0.3, seed=7)._sampled_indices(
                list(_chunks(decoded, 128))
            )
            for _ in range(2)
        ]
        assert picked[0] == picked[1]
        assert picked[0], "a guarded run never skips verification"

    def test_empty_chunks_are_never_sampled(self):
        decoded = decode_trace(_trace(256), CONFIG)
        empty = DecodedTrace(
            channel=np.zeros(0, dtype=np.int64),
            bank=np.zeros(0, dtype=np.int64),
            row=np.zeros(0, dtype=np.int64),
            column=np.zeros(0, dtype=np.int64),
            global_bank=np.zeros(0, dtype=np.int64),
        )
        chunks = [empty, decoded, empty]
        picked = _guard(sample=0.01)._sampled_indices(chunks)
        assert picked == [1]

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            _guard(mode="panic")
        with pytest.raises(ConfigError, match="sample"):
            _guard(sample=0.0)
        with pytest.raises(ConfigError, match="tolerance"):
            _guard(tolerance=(2.0, 0.5))


class TestDivergence:
    def _forced(self, mode: str) -> GuardedBackend:
        return _guard(
            sample=1.0,
            mode=mode,
            faults=FaultPlan.single(BACKEND_DIVERGENCE, match="chunk0"),
        )

    def test_demote_reruns_through_reference(self):
        trace = _trace()
        guard = self._forced("demote")
        reference = TierFactory("event", CONFIG, max_inflight=64)()
        stats = guard.simulate(trace)
        expected = reference.simulate(trace)
        assert stats.makespan_ns == expected.makespan_ns
        assert guard.demoted
        report = guard.last_health.guard
        assert report["diverged"]
        assert report["demoted"]
        failing = [c for c in report["checks"] if not c["ok"]]
        assert failing and failing[0]["injected"]
        events = [d["event"] for d in guard.last_health.degradations]
        assert "tier-demoted" in events
        assert not guard.last_health.ok

    def test_demotion_is_sticky(self):
        trace = _trace()
        guard = self._forced("demote")
        guard.simulate(trace)
        assert guard.demoted
        # The fault budget is spent; a later run still uses the
        # reference tier and says so.
        again = guard.simulate(trace)
        reference = TierFactory("event", CONFIG, max_inflight=64)()
        assert again.makespan_ns == reference.simulate(trace).makespan_ns
        events = [d["event"] for d in guard.last_health.degradations]
        assert events == ["tier-demoted"]

    def test_raise_mode_carries_structured_report(self):
        guard = self._forced("raise")
        with pytest.raises(BackendDivergenceError) as excinfo:
            guard.simulate(_trace())
        report = excinfo.value.report
        assert report["diverged"]
        assert report["primary"] == "vector"
        assert report["reference"] == "event"
        assert any(c["injected"] for c in report["checks"])

    def test_divergence_on_chunked_stream(self):
        decoded = decode_trace(_trace(1500), CONFIG)
        guard = _guard(
            sample=1.0,
            mode="demote",
            faults=FaultPlan.single(BACKEND_DIVERGENCE, match="chunk1"),
        )
        reference = TierFactory("event", CONFIG, max_inflight=64)()
        stats = guard.simulate_decoded(_chunks(decoded, 512))
        expected = reference.simulate_decoded(_chunks(decoded, 512))
        assert stats.makespan_ns == expected.makespan_ns
        assert guard.demoted


class TestPickling:
    def test_guard_round_trips_demotion_state(self):
        trace = _trace(512)
        guard = _guard(
            sample=1.0,
            mode="demote",
            faults=FaultPlan.single(BACKEND_DIVERGENCE, match="chunk0"),
        )
        guard.simulate(trace)
        assert guard.demoted
        clone = pickle.loads(pickle.dumps(guard))
        assert clone.demoted
        reference = TierFactory("event", CONFIG, max_inflight=64)()
        assert (
            clone.simulate(trace).makespan_ns
            == reference.simulate(trace).makespan_ns
        )


class TestFaultPlan:
    def test_sites_are_validated(self):
        FaultPlan.single("backend.*")
        with pytest.raises(ConfigError, match="matches no backend"):
            FaultPlan.single("backend.nonsense")
        with pytest.raises(ConfigError, match="DeviceFaultPlan"):
            FaultPlan.single("device.hbm.row")

    def test_each_spec_fires_once_on_its_first_match(self):
        plan = FaultPlan.single(BACKEND_DIVERGENCE, match="chunk1")
        fired = [
            plan.should_fire(BACKEND_DIVERGENCE, f"chunk{i}") is not None
            for i in (0, 1, 1, 2)
        ]
        assert fired == [False, True, False, False]
        assert FaultPlan().should_fire(BACKEND_DIVERGENCE, "chunk0") is None
