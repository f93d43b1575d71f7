"""Tests for SharedArtifacts and TenantContext: the split machine core."""

import pytest

from repro.errors import ConfigError
from repro.hbm.plancache import PlanCache
from repro.service.tenant import SharedArtifacts, TenantContext
from repro.system.config import system_by_key
from repro.system.machine import Machine
from repro.workloads.synthetic import StridedCopyWorkload

SYSTEM = system_by_key("sdm_bsm_ml4")


def small_workload():
    return StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200)


class TestSharedArtifacts:
    def test_create_derives_geometry_from_device(self):
        shared = SharedArtifacts.create()
        assert shared.geometry.total_bytes == shared.hbm.total_bytes
        assert shared.backend == "fast"
        assert isinstance(shared.plan_cache, PlanCache)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown memory model"):
            SharedArtifacts.create(backend="nope")

    def test_frozen(self):
        shared = SharedArtifacts.create()
        with pytest.raises(AttributeError):
            shared.backend = "vector"

    def test_explicit_plan_cache_is_used(self):
        cache = PlanCache()
        shared = SharedArtifacts.create(plan_cache=cache)
        assert shared.plan_cache is cache


class TestTenantContext:
    def test_inherits_shared_defaults(self):
        shared = SharedArtifacts.create(
            backend="fast", backend_options={"max_inflight": 8}
        )
        context = TenantContext("t", SYSTEM, shared)
        assert context.backend == "fast"
        assert context.backend_options == {"max_inflight": 8}
        assert context.hbm is shared.hbm
        assert context.geometry is shared.geometry

    def test_overrides_do_not_touch_shared(self):
        shared = SharedArtifacts.create()
        context = TenantContext(
            "t", SYSTEM, shared, backend="vector", backend_options={}
        )
        assert context.backend == "vector"
        assert shared.backend == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            TenantContext("t", SYSTEM, SharedArtifacts.create(), engine="gpu")

    def test_run_matches_machine_facade(self):
        """The façade must be bit-identical to a bare tenant context."""
        workload = small_workload()
        machine = Machine(SYSTEM, seed=3)
        context = TenantContext(
            "solo", SYSTEM, SharedArtifacts.create(), seed=3
        )
        via_machine = machine.run(workload).fingerprint()
        via_context = context.run(workload).fingerprint()
        assert via_machine == via_context

    def test_run_uses_shared_plan_cache(self):
        cache = PlanCache()
        shared = SharedArtifacts.create(plan_cache=cache)
        context = TenantContext("t", SYSTEM, shared)
        context.run(small_workload())
        assert cache.misses > 0
