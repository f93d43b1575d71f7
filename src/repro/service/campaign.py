"""The service selftest: prove tenant isolation, don't assume it.

``repro serve --selftest`` runs this campaign.  It admits N tenants
(mixed SDAM and baseline systems, distinct workloads and seeds), runs
each one solo (leg 1), and checks the acceptance property from three
directions:

2. **Concurrency isolation** — every tenant's fingerprint from the
   concurrent N-tenant run is bit-identical to the same tenant's solo
   run (same admissions, only that tenant's traffic submitted).
3. **Fault isolation** — re-run the concurrent leg with one tenant's
   backend deliberately faulted: the aggressor runs the guarded vector
   tier with ``backend.divergence`` injected, so its guard must demote
   it to the event reference (a missing ``tier-demoted`` entry is a
   mismatch — the fault must be seen to fire).  Every *other* tenant's
   fingerprint AND backend health must equal the clean concurrent leg.
4. **Controller isolation** — per-tenant adaptive and RAS campaigns run
   solo and then concurrently on threads; their campaign fingerprints
   must match.

The result carries per-leg fingerprints, every mismatch found, the
shared plan-cache counters (evidence the tenants shared compiled plans)
and the budget partition.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.faults import FaultPlan
from repro.faults.sites import BACKEND_DIVERGENCE
from repro.service.registry import TenantSpec
from repro.service.service import MappingService, ServiceReport
from repro.service.tenant import SharedArtifacts
from repro.workloads.synthetic import MixedStrideWorkload, StridedCopyWorkload

__all__ = ["ServiceCampaignResult", "run_service_campaign"]


@dataclass
class ServiceCampaignResult:
    """Everything the isolation selftest measured."""

    seed: int
    quick: bool
    tenants: list[str]
    faulty_tenant: str
    solo_fingerprints: dict = field(default_factory=dict)
    concurrent_fingerprints: dict = field(default_factory=dict)
    fault_fingerprints: dict = field(default_factory=dict)
    concurrent_health: dict = field(default_factory=dict)
    fault_health: dict = field(default_factory=dict)
    controller_fingerprints: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    plan_cache: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def isolated(self) -> bool:
        """True when every isolation check held."""
        return not self.mismatches

    @property
    def aggressor_demoted(self) -> bool:
        """True when the fault leg's guard demoted the aggressor."""
        health = self.fault_health.get(self.faulty_tenant) or {}
        return any(
            event.get("event") == "tier-demoted"
            for event in health.get("degradations", [])
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable report (the CI artifact)."""
        return {
            "seed": self.seed,
            "quick": self.quick,
            "tenants": self.tenants,
            "faulty_tenant": self.faulty_tenant,
            "isolated": self.isolated,
            "mismatches": list(self.mismatches),
            "solo_fingerprints": self.solo_fingerprints,
            "concurrent_fingerprints": self.concurrent_fingerprints,
            "fault_fingerprints": self.fault_fingerprints,
            "concurrent_health": self.concurrent_health,
            "fault_health": self.fault_health,
            "controller_fingerprints": self.controller_fingerprints,
            "plan_cache": self.plan_cache,
            "budget": self.budget,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def fingerprint(self) -> dict:
        """Deterministic content: the per-tenant fingerprints + verdict."""
        return {
            "seed": self.seed,
            "tenants": self.tenants,
            "isolated": self.isolated,
            "concurrent_fingerprints": self.concurrent_fingerprints,
        }

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "ISOLATED" if self.isolated else (
            f"{len(self.mismatches)} ISOLATION VIOLATION(S)"
        )
        return (
            f"service selftest: {len(self.tenants)} tenants, "
            f"{verdict}, plan cache "
            f"{self.plan_cache.get('hits', 0)} hits / "
            f"{self.plan_cache.get('misses', 0)} misses, "
            f"{self.elapsed_seconds:.1f}s"
        )


def _tenant_specs(
    seed: int,
    count: int,
    faulty: str | None = None,
    backend: str = "vector",
) -> list[TenantSpec]:
    """Deterministic tenant population: mixed systems, distinct seeds.

    ``faulty`` names the fault-isolation leg's aggressor: a guarded
    vector tenant (``guard_mode="demote"``) with ``backend.divergence``
    injected.  It stays on the vector tier regardless of ``backend``:
    the guard is a no-op on the event tier.
    """
    systems = ["sdm_bsm_ml4", "sdm_bsm", "bs_dm", "sdm_bsm_ml4"]
    specs = []
    for index in range(count):
        name = f"tenant{index}"
        aggressor = name == faulty
        specs.append(
            TenantSpec(
                name=name,
                system=systems[index % len(systems)],
                quota=5,
                seed=seed + index,
                backend="vector" if aggressor else backend,
                guard=aggressor,
                guard_mode="demote",
                backend_faults=(
                    FaultPlan.single(BACKEND_DIVERGENCE) if aggressor else None
                ),
            )
        )
    return specs


def _tenant_workload(seed: int, index: int, quick: bool):
    """Each tenant's (distinct) workload, sized for the mode."""
    accesses = 1500 if quick else 6000
    shapes = [
        lambda: StridedCopyWorkload(
            stride_lines=16, accesses_per_thread=accesses
        ),
        lambda: MixedStrideWorkload(
            strides=(1, 8), accesses_per_stride=accesses // 2
        ),
        lambda: StridedCopyWorkload(
            stride_lines=4, accesses_per_thread=accesses
        ),
        lambda: MixedStrideWorkload(
            strides=(2, 16), accesses_per_stride=accesses // 2
        ),
    ]
    return shapes[index % len(shapes)]()


def _run_leg(
    seed: int,
    specs: list[TenantSpec],
    submit_for: list[str],
    quick: bool,
    backend: str = "vector",
) -> ServiceReport:
    """One service run: admit every spec, submit jobs for a subset.

    Every leg admits the *same* population so the budget partition —
    part of each fingerprint — is identical across legs; only the
    submitted traffic differs.
    """
    service = MappingService(
        shared=SharedArtifacts.create(backend=backend)
    )
    for spec in specs:
        service.admit(spec)
    for index, spec in enumerate(specs):
        if spec.name in submit_for:
            service.submit(
                spec.name,
                _tenant_workload(seed, index, quick),
                profile_seed=0,
                eval_seed=1,
            )
    return service.drain()


def _controller_leg(
    seed: int, specs: list[TenantSpec], mismatches: list
) -> dict:
    """Per-tenant adaptive + RAS campaigns, solo vs concurrent.

    Controllers are parameterized by tenant context alone, so running
    two tenants' campaigns on threads must reproduce the solo
    fingerprints bit for bit.  The fast backend keeps the leg cheap;
    the property being checked is context isolation, not tier choice.
    """
    service = MappingService(shared=SharedArtifacts.create(backend="fast"))
    contexts = [service.admit(spec) for spec in specs[:2]]

    def adaptive(context):
        return context.adaptive_campaign(quick=True).fingerprint()

    def ras(context):
        return context.ras_campaign(quick=True, kinds=("row",)).fingerprint()

    solo = {}
    for context in contexts:
        solo[context.name] = {
            "adaptive": adaptive(context),
            "ras": ras(context),
        }
    tasks = [
        (context.name, kind, fn)
        for context in contexts
        for kind, fn in (("adaptive", adaptive), ("ras", ras))
    ]
    concurrent: dict = {context.name: {} for context in contexts}
    with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
        futures = [
            (name, kind, pool.submit(fn, service.registry.get(name)))
            for name, kind, fn in tasks
        ]
        for name, kind, future in futures:
            concurrent[name][kind] = future.result()
    for name, kinds in concurrent.items():
        for kind, fingerprint in kinds.items():
            if fingerprint != solo[name][kind]:
                mismatches.append(
                    {
                        "check": "controller",
                        "tenant": name,
                        "controller": kind,
                    }
                )
    return {"solo": solo, "concurrent": concurrent}


def run_service_campaign(
    seed: int = 0,
    tenants: int = 3,
    quick: bool = True,
    controllers: bool = True,
    backend: str = "vector",
) -> ServiceCampaignResult:
    """Run the full isolation selftest; see the module docstring."""
    started = time.perf_counter()
    count = max(2, tenants)
    clean_specs = _tenant_specs(seed, count, backend=backend)
    names = [spec.name for spec in clean_specs]
    faulty = names[0]
    result = ServiceCampaignResult(
        seed=seed,
        quick=quick,
        tenants=names,
        faulty_tenant=faulty,
    )

    # Leg 1: solo runs — same admissions, one tenant's traffic each.
    for name in names:
        report = _run_leg(seed, clean_specs, [name], quick, backend=backend)
        result.solo_fingerprints[name] = report.fingerprints()[name]

    # Leg 2: all tenants concurrently.
    report = _run_leg(seed, clean_specs, names, quick, backend=backend)
    result.concurrent_fingerprints = report.fingerprints()
    result.concurrent_health = {
        name: None
        if tenant.health is None
        else tenant.health.to_dict()
        for name, tenant in report.tenants.items()
    }
    result.plan_cache = report.plan_cache
    result.budget = report.budget
    for name in names:
        if result.concurrent_fingerprints[name] != result.solo_fingerprints[name]:
            result.mismatches.append(
                {"check": "concurrent-vs-solo", "tenant": name}
            )

    # Leg 3: concurrent again, with one tenant's backend faulted.  The
    # aggressor must be demoted (the fault fired); the victim tenants
    # must see neither their fingerprints nor their health move.
    fault_specs = _tenant_specs(seed, count, faulty=faulty, backend=backend)
    report = _run_leg(seed, fault_specs, names, quick, backend=backend)
    result.fault_fingerprints = report.fingerprints()
    result.fault_health = {
        name: None
        if tenant.health is None
        else tenant.health.to_dict()
        for name, tenant in report.tenants.items()
    }
    if not result.aggressor_demoted:
        result.mismatches.append({"check": "fault-not-fired", "tenant": faulty})
    for name in names:
        if name == faulty:
            continue
        if result.fault_fingerprints[name] != result.solo_fingerprints[name]:
            result.mismatches.append(
                {"check": "fault-vs-solo", "tenant": name}
            )
        if result.fault_health.get(name) != result.concurrent_health.get(name):
            result.mismatches.append(
                {"check": "fault-health", "tenant": name}
            )

    # Leg 4: per-tenant controllers, solo vs concurrent.
    if controllers:
        result.controller_fingerprints = _controller_leg(
            seed, clean_specs, result.mismatches
        )

    result.elapsed_seconds = time.perf_counter() - started
    return result
