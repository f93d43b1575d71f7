"""The full machine: a single-tenant façade over the tenant-scoped core.

``Machine.run(workload)`` executes the paper's whole pipeline for one
system configuration:

1. *Profile* (if the system needs it): run the workload on the baseline
   mapping with the profiling input, collect the external PA trace per
   variable (Section 6.2's offline pass).
2. *Select mappings*: per-application bit-shuffle, K-Means clusters or
   DL-assisted clusters; or a global BSM/HM mapping for the
   hardware-only baselines.
3. *Evaluate*: fresh kernel, ``add_addr_map`` + mapping-aware malloc
   for every variable, generate the evaluation-input trace, filter it
   through the cache hierarchy, translate VA->PA->HA, and simulate the
   HBM device.

The pipeline itself lives in
:class:`~repro.service.tenant.TenantContext`; ``Machine`` is the thin
single-tenant façade that builds one private
:class:`~repro.service.tenant.SharedArtifacts` + tenant context pair
and delegates.  The co-run machine (:mod:`repro.system.corun`) builds
the same contexts over one shared set of artifacts.

The returned :class:`MachineResult` carries the memory statistics plus
an end-to-end time model (memory makespan + a compute term proportional
to program accesses) from which experiment-level speedups are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chunks import ChunkGeometry
from repro.core.selection import MappingSelection
from repro.cpu.cpu import ExternalTraceResult
from repro.hbm.config import HBMConfig
from repro.hbm.stats import RunStats
from repro.ml.dlkmeans import AutoencoderConfig
from repro.profiling.profiler import WorkloadProfile
from repro.service.tenant import (
    ACCEL_COMPUTE_NS_PER_ACCESS,
    CPU_COMPUTE_NS_PER_ACCESS,
    SharedArtifacts,
    TenantContext,
)
from repro.system.config import SystemConfig
from repro.tier.stats import TierTraffic
from repro.workloads.base import Workload

__all__ = [
    "ACCEL_COMPUTE_NS_PER_ACCESS",
    "CPU_COMPUTE_NS_PER_ACCESS",
    "ExternalSummary",
    "Machine",
    "MachineResult",
]


@dataclass(frozen=True)
class ExternalSummary:
    """Cache-behaviour numbers of a run, without the trace arrays.

    Serialized results keep the external-trace *statistics* but not the
    address stream itself; this stand-in exposes the same aggregate
    interface as :class:`~repro.cpu.cpu.ExternalTraceResult`.
    """

    l1_hit_rate: float
    llc_hit_rate: float
    program_accesses: int
    external_accesses: int

    @property
    def miss_fraction(self) -> float:
        """External accesses per program access."""
        if self.program_accesses == 0:
            return 0.0
        return self.external_accesses / self.program_accesses


@dataclass
class MachineResult:
    """Everything one pipeline run produced."""

    workload: str
    system: str
    stats: RunStats
    external: ExternalTraceResult | ExternalSummary | None
    selection: MappingSelection | None
    compute_ns: float
    profiling_seconds: float = 0.0
    tier_traffic: TierTraffic | None = None

    @property
    def time_ns(self) -> float:
        """End-to-end time: memory makespan plus compute."""
        return self.stats.makespan_ns + self.compute_ns

    @property
    def memory_time_ns(self) -> float:
        """Memory-system makespan only."""
        return self.stats.makespan_ns

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload:>12} on {self.system:<16} "
            f"{self.stats.throughput_gbps:7.1f} GB/s  "
            f"CLP {self.stats.clp_utilization:.2f}  "
            f"time {self.time_ns / 1e3:.1f} us"
        )

    # -- serialization -------------------------------------------------------
    def external_summary(self) -> ExternalSummary | None:
        """The external-trace statistics, trace arrays dropped."""
        if self.external is None:
            return None
        if isinstance(self.external, ExternalSummary):
            return self.external
        return ExternalSummary(
            l1_hit_rate=float(self.external.l1_hit_rate),
            llc_hit_rate=float(self.external.llc_hit_rate),
            program_accesses=int(self.external.program_accesses),
            external_accesses=len(self.external.trace),
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable form.

        Bulk arrays (the external address trace, the selection's
        window permutations) are reduced to their statistics:
        everything speedup computation and reporting consume survives
        the round trip, so cached and fresh results are
        interchangeable.
        """
        external = self.external_summary()
        selection = None
        if self.selection is not None:
            selection = {
                "method": self.selection.method,
                "k": int(self.selection.k),
                "num_mappings": len(self.selection.window_perms)
                or int(self.selection.details.get("num_mappings", 0)),
                "variable_cluster": {
                    str(var): int(cluster)
                    for var, cluster in self.selection.variable_cluster.items()
                },
                "elapsed_seconds": float(self.selection.elapsed_seconds),
            }
        data = {
            "workload": self.workload,
            "system": self.system,
            "stats": self.stats.to_dict(),
            "external": None
            if external is None
            else {
                "l1_hit_rate": external.l1_hit_rate,
                "llc_hit_rate": external.llc_hit_rate,
                "program_accesses": external.program_accesses,
                "external_accesses": external.external_accesses,
            },
            "selection": selection,
            "compute_ns": self.compute_ns,
            "profiling_seconds": self.profiling_seconds,
        }
        # Only present for tiered runs: keeps the dict (and every cache
        # entry and fingerprint) of the other tiers unchanged.
        if self.tier_traffic is not None:
            data["tier_traffic"] = self.tier_traffic.to_dict()
        return data

    def to_json(self, **json_kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        import json

        return json.dumps(self.to_dict(), **json_kwargs)

    def fingerprint(self) -> dict:
        """:meth:`to_dict` with wall-clock timing fields zeroed.

        Two runs of the same cell are bit-identical on everything but
        the host's measured profiling time; this is the deterministic
        content, for equivalence checks across serial, parallel and
        cached execution.
        """
        data = self.to_dict()
        data["profiling_seconds"] = 0.0
        if data["selection"] is not None:
            data["selection"]["elapsed_seconds"] = 0.0
        # Tier traffic is provenance (placement and swap accounting),
        # not result content: the timing it influenced is already inside
        # ``stats``.
        data.pop("tier_traffic", None)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MachineResult":
        """Rebuild a result written by :meth:`to_dict`.

        The reconstructed ``selection`` carries the clustering summary
        (method, k, variable->cluster) but no window permutations, and
        ``external`` comes back as an :class:`ExternalSummary`.
        """
        external = None
        if data.get("external") is not None:
            ext = data["external"]
            external = ExternalSummary(
                l1_hit_rate=float(ext["l1_hit_rate"]),
                llc_hit_rate=float(ext["llc_hit_rate"]),
                program_accesses=int(ext["program_accesses"]),
                external_accesses=int(ext["external_accesses"]),
            )
        selection = None
        if data.get("selection") is not None:
            sel = data["selection"]
            selection = MappingSelection(
                method=sel["method"],
                k=int(sel["k"]),
                window_perms=[],
                variable_cluster={
                    int(var): int(cluster)
                    for var, cluster in sel["variable_cluster"].items()
                },
                elapsed_seconds=float(sel["elapsed_seconds"]),
                details={"num_mappings": int(sel["num_mappings"])},
            )
        tier_traffic = None
        if data.get("tier_traffic") is not None:
            tier_traffic = TierTraffic.from_dict(data["tier_traffic"])
        return cls(
            workload=data["workload"],
            system=data["system"],
            stats=RunStats.from_dict(data["stats"]),
            external=external,
            selection=selection,
            compute_ns=float(data["compute_ns"]),
            profiling_seconds=float(data.get("profiling_seconds", 0.0)),
            tier_traffic=tier_traffic,
        )


class Machine:
    """One simulated platform bound to a system configuration.

    A thin single-tenant façade: construction builds one private
    :class:`~repro.service.tenant.SharedArtifacts` and one
    :class:`~repro.service.tenant.TenantContext`, and every pipeline
    method delegates to the context.  The familiar attributes
    (``system``, ``hbm``, ``geometry``, ``engine``, ``backend``,
    ``layout``, ...) remain available on the façade.
    """

    SELECTION_COVERAGE = TenantContext.SELECTION_COVERAGE

    def __init__(
        self,
        system: SystemConfig,
        hbm: HBMConfig | None = None,
        geometry: ChunkGeometry | None = None,
        engine: str = "cpu",
        cores: int = 4,
        backend: str | None = None,
        backend_options: dict | None = None,
        chunk_accesses: int | None = None,
        dl_config: AutoencoderConfig | None = None,
        seed: int = 0,
        chunk_colours: int = 8,
        debug_ha: bool = False,
    ):
        if backend is None:
            backend = "fast"
        shared = SharedArtifacts.create(
            hbm=hbm,
            geometry=geometry,
            backend=backend,
            backend_options=backend_options,
        )
        self._tenant = TenantContext(
            name="machine",
            system=system,
            shared=shared,
            engine=engine,
            cores=cores,
            chunk_accesses=chunk_accesses,
            dl_config=dl_config,
            seed=seed,
            chunk_colours=chunk_colours,
            debug_ha=debug_ha,
        )
        # Façade mirrors of the tenant's configuration, kept for the
        # pre-refactor public surface (experiments, stages, tests).
        self.shared = shared
        self.system = system
        self.hbm = shared.hbm
        self.geometry = shared.geometry
        self.layout = self._tenant.layout
        self.engine = self._tenant.engine
        self.compute_ns_per_access = self._tenant.compute_ns_per_access
        self.backend = self._tenant.backend
        self.backend_options = self._tenant.backend_options
        self.chunk_accesses = self._tenant.chunk_accesses
        self.dl_config = self._tenant.dl_config
        self.seed = self._tenant.seed
        self.chunk_colours = self._tenant.chunk_colours
        self.debug_ha = self._tenant.debug_ha

    @property
    def tenant(self) -> TenantContext:
        """The tenant context this façade drives."""
        return self._tenant

    # -- the pipeline (delegated to the tenant context) ----------------------
    def profile(self, workload: Workload, input_seed: int = 0) -> WorkloadProfile:
        """Offline profiling on the baseline system (Section 6.2)."""
        return self._tenant.profile(workload, input_seed=input_seed)

    def select(self, profile: WorkloadProfile) -> MappingSelection:
        """Mapping selection for this machine's system configuration."""
        return self._tenant.select(profile)

    def run(
        self,
        workload: Workload,
        profile_seed: int = 0,
        eval_seed: int = 1,
        mix_profile: WorkloadProfile | None = None,
        profile: WorkloadProfile | None = None,
        selection: MappingSelection | None = None,
    ) -> MachineResult:
        """Profile (if needed), select mappings, evaluate, simulate.

        See :meth:`repro.service.tenant.TenantContext.run` for the
        parameter semantics.
        """
        return self._tenant.run(
            workload,
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            mix_profile=mix_profile,
            profile=profile,
            selection=selection,
        )
