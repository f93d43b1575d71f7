"""Tenant admission: quotas carved from the global mapping budget.

The CMT supports 256 concurrent mappings globally (Section 5.3), and
the multi-tenant service must hand every admitted tenant a slice it can
rely on.  :class:`TenantRegistry` is the control plane for that budget.
``admit`` carves a :class:`~repro.core.cmt.MappingNamespace` out of the
remaining slots (first-fit over released ranges — kept sorted and
coalesced so churn cannot fragment the table — then a bump allocator),
builds the tenant's :class:`~repro.service.tenant.TenantContext` over
the deployment's shared artifacts, and ``evict`` returns the slice for
reuse.

When the budget cannot fit a request, admission fails with
:class:`~repro.errors.CMTError` — the same error quota exhaustion
raises at intern time — so overcommit stays impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cmt import MappingNamespace
from repro.errors import CMTError, ConfigError
from repro.service.tenant import SharedArtifacts, TenantContext
from repro.system.config import SystemConfig, system_by_key

__all__ = ["TenantRegistry", "TenantSpec"]

#: Default mapping-slot quota for a tenant that doesn't ask for one:
#: enough for the paper's 4-cluster configurations.
DEFAULT_QUOTA = 4


@dataclass(frozen=True)
class TenantSpec:
    """What a tenant asks for at admission time.

    ``quota`` is the mapping-slot count carved for the tenant.
    """

    name: str
    system: SystemConfig | str = "sdm_bsm_ml4"
    quota: int = DEFAULT_QUOTA
    seed: int = 0
    engine: str = "cpu"
    cores: int = 4
    backend: str | None = None
    backend_options: dict | None = None
    chunk_accesses: int | None = None
    chunk_colours: int = 8
    guard: bool = False
    guard_sample: float | None = None
    guard_mode: str = "demote"
    backend_faults: object | None = None

    def resolved_system(self) -> SystemConfig:
        """The system configuration, looked up when given as a key."""
        if isinstance(self.system, SystemConfig):
            return self.system
        return system_by_key(self.system)


@dataclass
class _FreeRange:
    """A released slice of the budget, reusable by later admissions."""

    base: int
    capacity: int = field(default=0)

    @property
    def end(self) -> int:
        return self.base + self.capacity


class TenantRegistry:
    """Admission control over one deployment's shared artifacts."""

    def __init__(
        self,
        shared: SharedArtifacts | None = None,
        max_mappings: int = 256,
    ):
        if max_mappings < 2:
            raise ConfigError(
                "service needs at least two mapping slots "
                "(identity + one tenant slot)"
            )
        self.shared = shared or SharedArtifacts.create()
        self.max_mappings = max_mappings
        self._tenants: dict[str, TenantContext] = {}
        self._free: list[_FreeRange] = []  # sorted by base, coalesced
        self._next_base = 1  # slot 0: the shared boot identity

    # -- budget bookkeeping --------------------------------------------------
    @property
    def remaining_slots(self) -> int:
        """Mapping slots still carvable (free ranges + untouched tail)."""
        freed = sum(r.capacity for r in self._free)
        return self.max_mappings - self._next_base + freed

    def _release(self, base: int, capacity: int) -> None:
        """Return a slice to the free pool, coalescing neighbours.

        Coalescing matters under churn: hundreds of admit/evict cycles
        must not fragment the table into unusable single-slot shards.
        A free range that reaches the bump frontier folds back into it.
        """
        if capacity < 1:
            return
        self._free.append(_FreeRange(base=base, capacity=capacity))
        self._free.sort(key=lambda r: r.base)
        merged: list[_FreeRange] = []
        for rng in self._free:
            if merged and merged[-1].end == rng.base:
                merged[-1].capacity += rng.capacity
            else:
                merged.append(rng)
        while merged and merged[-1].end == self._next_base:
            self._next_base = merged.pop().base
        self._free = merged

    def _carve(self, tenant: str, quota: int) -> MappingNamespace:
        for position, free in enumerate(self._free):
            if free.capacity >= quota:
                namespace = MappingNamespace(tenant, free.base, quota)
                if free.capacity == quota:
                    del self._free[position]
                else:
                    free.base += quota
                    free.capacity -= quota
                return namespace
        if self._next_base + quota > self.max_mappings:
            raise CMTError(
                f"mapping budget exhausted: tenant {tenant!r} needs {quota} "
                f"slots but only {self.remaining_slots} remain "
                f"(of {self.max_mappings}, slot 0 reserved)"
            )
        namespace = MappingNamespace(tenant, self._next_base, quota)
        self._next_base += quota
        return namespace

    # -- admission -----------------------------------------------------------
    def _build_context(
        self, spec: TenantSpec, namespace: MappingNamespace | None
    ) -> TenantContext:
        return TenantContext(
            name=spec.name,
            system=spec.resolved_system(),
            shared=self.shared,
            engine=spec.engine,
            cores=spec.cores,
            backend=spec.backend,
            backend_options=spec.backend_options,
            chunk_accesses=spec.chunk_accesses,
            seed=spec.seed,
            chunk_colours=spec.chunk_colours,
            guard=spec.guard,
            guard_sample=spec.guard_sample,
            guard_mode=spec.guard_mode,
            backend_faults=spec.backend_faults,
            namespace=namespace,
        )

    def admit(self, spec: TenantSpec) -> TenantContext:
        """Admit a tenant: carve its namespace, build its context."""
        if spec.name in self._tenants:
            raise ConfigError(f"tenant {spec.name!r} is already admitted")
        if spec.quota < 1:
            raise ConfigError(f"tenant {spec.name!r} quota must be >= 1")
        namespace = self._carve(spec.name, spec.quota)
        context = self._build_context(spec, namespace)
        self._tenants[spec.name] = context
        return context

    def evict(self, name: str) -> None:
        """Remove a tenant, returning its slice to the free pool."""
        context = self._tenants.pop(name, None)
        if context is None:
            raise ConfigError(f"tenant {name!r} is not admitted")
        namespace = context.namespace
        if namespace is not None:
            self._release(namespace.base, namespace.capacity)

    # -- lookups -------------------------------------------------------------
    def get(self, name: str) -> TenantContext:
        """The admitted tenant's context."""
        context = self._tenants.get(name)
        if context is None:
            raise ConfigError(f"tenant {name!r} is not admitted")
        return context

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    @property
    def names(self) -> list[str]:
        """Admitted tenant names, in admission order."""
        return list(self._tenants)

    def contexts(self) -> list[TenantContext]:
        """Admitted tenant contexts, in admission order."""
        return list(self._tenants.values())

    # -- invariants ----------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """The budget laws, checkable after any churn sequence.

        Returns human-readable violations (empty when healthy): every
        namespace inside ``[1, max_mappings)``, pairwise disjoint, and
        the carved + free slots exactly accounting for the region below
        the bump frontier.
        """
        problems: list[str] = []
        spaces = [
            context.namespace
            for context in self._tenants.values()
            if context.namespace is not None
        ]
        for ns in spaces:
            if ns.base < 1 or ns.end > self.max_mappings:
                problems.append(
                    f"namespace {ns.tenant!r} [{ns.base}, {ns.end}) outside "
                    f"[1, {self.max_mappings})"
                )
        ordered = sorted(spaces, key=lambda ns: ns.base)
        for left, right in zip(ordered, ordered[1:]):
            if left.overlaps(right):
                problems.append(
                    f"namespaces {left.tenant!r} and {right.tenant!r} overlap"
                )
        carved = sum(ns.capacity for ns in spaces)
        freed = sum(r.capacity for r in self._free)
        if carved + freed != self._next_base - 1:
            problems.append(
                f"budget accounting broken: {carved} carved + {freed} free "
                f"!= {self._next_base - 1} below the bump frontier"
            )
        for left, right in zip(self._free, self._free[1:]):
            if left.end > right.base:
                problems.append("free ranges overlap")
            elif left.end == right.base:
                problems.append("free ranges not coalesced")
        return problems

    def report(self) -> dict:
        """A JSON-serialisable view of the budget partition."""
        return {
            "max_mappings": self.max_mappings,
            "remaining_slots": self.remaining_slots,
            "tenants": {
                name: context.namespace.to_dict()
                for name, context in self._tenants.items()
                if context.namespace is not None
            },
        }
