"""The mapping service: a batching front-end over tenant contexts.

:class:`MappingService` admits tenants through a
:class:`~repro.service.registry.TenantRegistry` (quota-carved mapping
namespaces over shared immutable artifacts), accepts their workload
jobs, and ``drain()`` schedules every tenant's lane concurrently.
Within a lane jobs run in submission order and each job streams its
decoded trace chunk-by-chunk into that tenant's own backend instance
(the vector tier by default) — per-tenant streams stay ordered, which
is what makes every tenant's result bit-identical to a solo run no
matter how lanes interleave.

Per-tenant :class:`~repro.hbm.stats.RunStats` and
:class:`~repro.hbm.stats.BackendHealth` are folded under the ledger
laws (DESIGN §2, "Run ledgers") into service-level aggregates, and the
report carries deterministic per-tenant fingerprints plus the shared
plan-cache counters — the evidence that tenants shared compiled plans
without sharing anything mutable.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.cmt import MappingNamespace
from repro.errors import ConfigError
from repro.hbm.stats import BackendHealth, RunStats
from repro.service.registry import TenantRegistry, TenantSpec
from repro.service.tenant import SharedArtifacts, TenantContext
from repro.workloads.base import Workload

__all__ = ["MappingService", "ServiceReport", "TenantResult"]


@dataclass(frozen=True)
class _Job:
    """One submitted unit of work: a workload run for one tenant."""

    tenant: str
    workload: Workload
    profile_seed: int = 0
    eval_seed: int = 1


@dataclass
class TenantResult:
    """Everything one tenant's drained lane produced."""

    tenant: str
    namespace: MappingNamespace | None
    results: list = field(default_factory=list)

    @property
    def stats(self) -> RunStats | None:
        """This tenant's run statistics, merged across its jobs."""
        return RunStats.fold(r.stats for r in self.results)

    @property
    def health(self) -> BackendHealth | None:
        """This tenant's backend health, merged across its jobs."""
        return BackendHealth.fold(r.backend_health for r in self.results)

    def fingerprint(self) -> dict:
        """Deterministic content of this tenant's lane.

        Per-run :meth:`~repro.system.machine.MachineResult.fingerprint`
        plus the namespace the tenant was admitted with — so two
        service runs agree only if the budget partition agreed too.
        """
        return {
            "tenant": self.tenant,
            "namespace": None
            if self.namespace is None
            else self.namespace.to_dict(),
            "runs": [r.fingerprint() for r in self.results],
        }

    def to_dict(self) -> dict:
        """A JSON-serialisable form (results via their own to_dict)."""
        health = self.health
        return {
            "tenant": self.tenant,
            "namespace": None
            if self.namespace is None
            else self.namespace.to_dict(),
            "runs": [r.to_dict() for r in self.results],
            "health": None if health is None else health.to_dict(),
        }


@dataclass
class ServiceReport:
    """Outcome of one :meth:`MappingService.drain`."""

    tenants: dict[str, TenantResult]
    plan_cache: dict
    budget: dict

    @property
    def aggregate_stats(self) -> RunStats | None:
        """Service-wide statistics: per-tenant stats under the merge laws."""
        return RunStats.fold(t.stats for t in self.tenants.values())

    @property
    def aggregate_health(self) -> BackendHealth | None:
        """Service-wide backend health under the merge laws."""
        return BackendHealth.fold(t.health for t in self.tenants.values())

    def fingerprints(self) -> dict[str, dict]:
        """Per-tenant deterministic fingerprints."""
        return {
            name: result.fingerprint()
            for name, result in self.tenants.items()
        }

    def to_dict(self) -> dict:
        """A JSON-serialisable form of the whole report."""
        aggregate = self.aggregate_stats
        health = self.aggregate_health
        return {
            "tenants": {
                name: result.to_dict()
                for name, result in self.tenants.items()
            },
            "aggregate_stats": None
            if aggregate is None
            else aggregate.to_dict(),
            "aggregate_health": None if health is None else health.to_dict(),
            "plan_cache": self.plan_cache,
            "budget": self.budget,
        }


class MappingService:
    """Admit tenants, accept jobs, drain them concurrently.

    ``max_workers`` bounds how many tenant lanes run at once (default:
    one thread per tenant with queued work).  Tenants default to the
    vector backend the deployment's shared artifacts name.
    """

    def __init__(
        self,
        shared: SharedArtifacts | None = None,
        max_mappings: int = 256,
        max_workers: int | None = None,
    ):
        if shared is None:
            shared = SharedArtifacts.create(backend="vector")
        self.registry = TenantRegistry(shared, max_mappings=max_mappings)
        self.shared = self.registry.shared
        if max_workers is not None and max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._queue: list[_Job] = []

    # -- admission (delegated) ----------------------------------------------
    def admit(self, spec: TenantSpec) -> TenantContext:
        """Admit a tenant (see :meth:`TenantRegistry.admit`)."""
        return self.registry.admit(spec)

    def evict(self, name: str) -> int:
        """Evict a tenant, dropping its queued jobs; returns how many
        were dropped."""
        self.registry.evict(name)
        kept = [job for job in self._queue if job.tenant != name]
        dropped = len(self._queue) - len(kept)
        self._queue = kept
        return dropped

    # -- the batching front-end ----------------------------------------------
    def submit(
        self,
        tenant: str,
        workload: Workload,
        profile_seed: int = 0,
        eval_seed: int = 1,
    ) -> None:
        """Queue one workload run for an admitted tenant."""
        if tenant not in self.registry:
            raise ConfigError(f"tenant {tenant!r} is not admitted")
        self._queue.append(
            _Job(
                tenant=tenant,
                workload=workload,
                profile_seed=profile_seed,
                eval_seed=eval_seed,
            )
        )

    @property
    def pending(self) -> int:
        """Queued jobs not yet drained."""
        return len(self._queue)

    def _run_lane(
        self, context: TenantContext, jobs: list[_Job]
    ) -> TenantResult:
        """Run one tenant's jobs in submission order.

        The lane is the isolation unit: everything mutable it touches
        (kernel, CMT, allocator, backend) belongs to this tenant, so
        lanes can interleave freely on the executor without perturbing
        each other's results.
        """
        result = TenantResult(
            tenant=context.name, namespace=context.namespace
        )
        for job in jobs:
            result.results.append(
                context.run(
                    job.workload,
                    profile_seed=job.profile_seed,
                    eval_seed=job.eval_seed,
                )
            )
        return result

    def drain(self) -> ServiceReport:
        """Run every queued job, tenant lanes concurrently.

        Returns a :class:`ServiceReport`; the queue is emptied.  Admitted
        tenants with no queued jobs appear in the report with an empty
        lane, so the budget view is complete.
        """
        jobs, self._queue = self._queue, []
        lanes: dict[str, list[_Job]] = {
            name: [] for name in self.registry.names
        }
        for job in jobs:
            lanes[job.tenant].append(job)
        results: dict[str, TenantResult] = {}
        active = [name for name, lane in lanes.items() if lane]
        if active:
            workers = self.max_workers or len(active)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    name: pool.submit(
                        self._run_lane, self.registry.get(name), lanes[name]
                    )
                    for name in active
                }
                for name, future in futures.items():
                    results[name] = future.result()
        for name in self.registry.names:
            if name not in results:
                results[name] = TenantResult(
                    tenant=name,
                    namespace=self.registry.get(name).namespace,
                )
        return ServiceReport(
            tenants=results,
            plan_cache=self.shared.plan_cache.stats(),
            budget=self.registry.report(),
        )
