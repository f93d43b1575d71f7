"""Tests for the batching service front-end and the isolation campaign."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.service import campaign
from repro.service.campaign import run_service_campaign
from repro.service.registry import TenantSpec
from repro.service.service import MappingService
from repro.service.tenant import SharedArtifacts
from repro.workloads.synthetic import MixedStrideWorkload, StridedCopyWorkload


def fast_service(**kwargs) -> MappingService:
    kwargs.setdefault("shared", SharedArtifacts.create(backend="fast"))
    return MappingService(**kwargs)


def workload_a():
    return StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200)


def workload_b():
    return MixedStrideWorkload(strides=(1, 4), accesses_per_stride=600)


class TestFrontEnd:
    def test_submit_requires_admission(self):
        service = fast_service()
        with pytest.raises(ConfigError, match="not admitted"):
            service.submit("ghost", workload_a())

    def test_drain_runs_lanes_and_reports(self):
        service = fast_service()
        service.admit(TenantSpec("a", system="sdm_bsm_ml4", seed=1))
        service.admit(TenantSpec("b", system="bs_dm", seed=2))
        service.submit("a", workload_a())
        service.submit("b", workload_b())
        assert service.pending == 2
        report = service.drain()
        assert service.pending == 0
        assert set(report.tenants) == {"a", "b"}
        for result in report.tenants.values():
            assert result.stats.requests > 0
        assert report.budget["tenants"].keys() == {"a", "b"}
        assert report.plan_cache["misses"] >= 1
        # The whole report serialises.
        json.dumps(report.to_dict())

    def test_idle_tenant_appears_with_empty_lane(self):
        service = fast_service()
        service.admit(TenantSpec("busy"))
        service.admit(TenantSpec("idle"))
        service.submit("busy", workload_a())
        report = service.drain()
        assert report.tenants["idle"].results == []
        assert report.tenants["idle"].stats is None
        assert report.tenants["idle"].health is None
        assert report.fingerprints()["idle"]["runs"] == []

    def test_lane_preserves_submission_order(self):
        service = fast_service()
        service.admit(TenantSpec("a"))
        service.submit("a", workload_a(), eval_seed=1)
        service.submit("a", workload_b(), eval_seed=2)
        report = service.drain()
        names = [r.workload for r in report.tenants["a"].results]
        assert names == [workload_a().name, workload_b().name]

    def test_evict_drops_queued_jobs(self):
        service = fast_service()
        service.admit(TenantSpec("a"))
        service.submit("a", workload_a())
        service.evict("a")
        assert service.pending == 0
        assert "a" not in service.registry

    def test_evict_reports_dropped_jobs(self):
        """Regression: eviction must *account* queued jobs, not drop
        them silently — the dropped count comes back to the caller."""
        service = fast_service()
        service.admit(TenantSpec("a"))
        service.admit(TenantSpec("b"))
        service.submit("a", workload_a())
        service.submit("a", workload_b())
        service.submit("b", workload_b())
        assert service.evict("a") == 2
        # Tenant b's job is untouched.
        report = service.drain()
        assert len(report.tenants["b"].results) == 1
        assert service.evict("b") == 0

    def test_aggregate_stats_merge_per_tenant_stats(self):
        service = fast_service()
        service.admit(TenantSpec("a", seed=1))
        service.admit(TenantSpec("b", seed=2))
        service.submit("a", workload_a())
        service.submit("b", workload_b())
        report = service.drain()
        merged = report.tenants["a"].stats.merge(report.tenants["b"].stats)
        assert report.aggregate_stats.to_dict() == merged.to_dict()

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ConfigError):
            fast_service(max_workers=0)

    def test_plan_cache_shared_across_tenants(self):
        """Same system, same mappings: the second tenant's plans hit."""
        service = fast_service()
        service.admit(TenantSpec("a", system="bs_dm", seed=7))
        service.admit(TenantSpec("b", system="bs_dm", seed=7))
        service.submit("a", workload_a())
        service.submit("b", workload_a())
        report = service.drain()
        assert report.plan_cache["hits"] >= 1


class TestConcurrencyIsolation:
    def test_concurrent_fingerprints_match_solo(self):
        """The core isolation property, in miniature: each tenant's
        concurrent result is bit-identical to its solo run."""

        def run(submit_for):
            service = fast_service()
            service.admit(TenantSpec("a", system="sdm_bsm_ml4", seed=1))
            service.admit(TenantSpec("b", system="sdm_bsm", seed=2))
            if "a" in submit_for:
                service.submit("a", workload_a())
            if "b" in submit_for:
                service.submit("b", workload_b())
            return service.drain().fingerprints()

        solo_a = run({"a"})["a"]
        solo_b = run({"b"})["b"]
        both = run({"a", "b"})
        assert both["a"] == solo_a
        assert both["b"] == solo_b


class TestServiceCampaign:
    def test_quick_campaign_isolated(self):
        result = run_service_campaign(
            seed=0, tenants=2, quick=True, controllers=False
        )
        assert result.isolated
        assert result.mismatches == []
        assert result.tenants == ["tenant0", "tenant1"]
        assert result.faulty_tenant == "tenant0"
        # The shared cache really was shared across tenants and legs.
        assert result.plan_cache["hits"] > 0
        # The faulted leg demoted only the aggressor.
        assert result.aggressor_demoted
        aggressor = result.fault_health[result.faulty_tenant]
        assert aggressor["demoted_to"] == "event"
        assert aggressor["guard"]["diverged"] is True
        victim = result.tenants[1]
        assert result.fault_health[victim] == result.concurrent_health[victim]
        assert result.fault_fingerprints[victim] == result.solo_fingerprints[
            victim
        ]
        json.dumps(result.to_dict())
        assert "ISOLATED" in result.summary()

    def test_controller_leg_isolated(self):
        result = run_service_campaign(
            seed=0, tenants=2, quick=True, controllers=True
        )
        assert result.isolated
        controllers = result.controller_fingerprints
        assert set(controllers["solo"]) == {"tenant0", "tenant1"}
        for name, kinds in controllers["solo"].items():
            assert controllers["concurrent"][name] == kinds

    def test_fault_leg_reports_a_fault_that_never_fired(self, monkeypatch):
        """Without the injected divergence the guarded aggressor is never
        demoted, and the campaign must say so instead of passing."""
        real = campaign._tenant_specs

        def unfaulted(*args, **kwargs):
            return [
                dataclasses.replace(spec, backend_faults=None)
                for spec in real(*args, **kwargs)
            ]

        monkeypatch.setattr(campaign, "_tenant_specs", unfaulted)
        result = run_service_campaign(
            seed=0, tenants=2, quick=True, controllers=False
        )
        assert not result.aggressor_demoted
        assert result.mismatches == [
            {"check": "fault-not-fired", "tenant": "tenant0"}
        ]
        assert not result.isolated
