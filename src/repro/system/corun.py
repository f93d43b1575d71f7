"""Co-running applications sharing one SDAM machine.

Section 7.4 motivates the 4-cluster configurations with co-running
applications: the CMT supports 256 concurrent mappings *globally*, so
when many applications co-run, each gets only a slice of the mapping
budget and several variables must share a mapping.  This module runs
several workloads concurrently — separate address spaces, one physical
memory, one CMT — splitting the cluster budget across them and
interleaving their external traces, the multiprogrammed scenario the
prototype's globally-shared CMT is designed for.

Re-expressed on the tenant-scoped core: each application is a
:class:`~repro.service.tenant.TenantContext` built over one set of
:class:`~repro.service.tenant.SharedArtifacts`, its slice of the
mapping budget is a :class:`~repro.core.cmt.MappingNamespace` carved by
:func:`~repro.core.cmt.partition_budget`, and every ``add_addr_map`` is
charged against that namespace — the budget split is *enforced*, not
just hoped for.  The apps deliberately share one kernel and one CMT,
reproducing the prototype's globally-shared table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chunks import ChunkGeometry
from repro.core.cmt import partition_budget
from repro.core.sdam import SDAMController
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace, interleave_traces
from repro.errors import ConfigError
from repro.hbm.config import HBMConfig
from repro.hbm.fastmodel import WindowModel
from repro.hbm.stats import RunStats
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.service.tenant import (
    CPU_COMPUTE_NS_PER_ACCESS,
    SharedArtifacts,
    TenantContext,
)
from repro.system.config import SystemConfig
from repro.workloads.base import Workload

__all__ = ["CorunResult", "CorunMachine"]


@dataclass(frozen=True)
class CorunResult:
    """Outcome of one multiprogrammed run."""

    stats: RunStats
    compute_ns: float
    live_mappings: int
    workload_names: list[str]

    @property
    def time_ns(self) -> float:
        """End-to-end time: memory makespan plus compute."""
        return self.stats.makespan_ns + self.compute_ns


class CorunMachine:
    """Several workloads, one memory system, one shared CMT."""

    def __init__(
        self,
        use_sdam: bool = True,
        clusters_per_app: int = 4,
        hbm: HBMConfig | None = None,
        geometry: ChunkGeometry | None = None,
        cores: int = 4,
        max_mappings: int = 256,
        seed: int = 0,
    ):
        if clusters_per_app < 1:
            raise ConfigError("need at least one cluster per application")
        self.use_sdam = use_sdam
        self.clusters_per_app = clusters_per_app
        self.shared = SharedArtifacts.create(hbm=hbm, geometry=geometry)
        self.hbm = self.shared.hbm
        self.geometry = self.shared.geometry
        self.cores = cores
        self.max_mappings = max_mappings
        self.seed = seed
        self.layout = self.shared.layout()

    def _app_context(self, app_index: int, workload: Workload) -> TenantContext:
        """A tenant context for one co-running application.

        Shares the machine's artifacts; profiling and K-Means selection
        run through the tenant pipeline with the app-specific seed the
        pre-refactor code used.
        """
        system = SystemConfig(
            key=f"corun_app{app_index}",
            label=f"corun:{workload.name}",
            sdam=True,
            policy="default",
            clustering="kmeans",
            clusters=self.clusters_per_app,
        )
        return TenantContext(
            name=f"app{app_index}",
            system=system,
            shared=self.shared,
            cores=self.cores,
            seed=self.seed + app_index,
        )

    def run(
        self,
        workloads: list[Workload],
        profile_seed: int = 0,
        eval_seed: int = 1,
    ) -> CorunResult:
        """Profile each app, share the CMT, run everything together."""
        if not workloads:
            raise ConfigError("no workloads to co-run")
        sdam = (
            SDAMController(self.geometry, max_mappings=self.max_mappings)
            if self.use_sdam
            else None
        )
        if sdam is not None:
            namespaces = partition_budget(
                {f"app{i}": self.clusters_per_app for i in range(len(workloads))},
                max_mappings=self.max_mappings,
            )
            for namespace in namespaces.values():
                sdam.register_namespace(namespace)
        kernel = Kernel(self.geometry, sdam=sdam)
        engine = CPUModel(cores=self.cores)
        all_external: list[AccessTrace] = []
        program_accesses = 0
        compute_ns = 0.0
        for app_index, workload in enumerate(workloads):
            mapping_of_variable: dict[int, int] = {}
            if self.use_sdam:
                context = self._app_context(app_index, workload)
                selection = context.select(
                    context.profile(workload, input_seed=profile_seed)
                )
                cluster_to_mapping = {
                    index: kernel.add_addr_map(
                        perm, namespace=f"app{app_index}"
                    )
                    for index, perm in enumerate(selection.window_perms)
                }
                mapping_of_variable = {
                    vid: cluster_to_mapping[cluster]
                    for vid, cluster in selection.variable_cluster.items()
                }
            space = kernel.spawn()
            malloc = MappingAwareAllocator(kernel, space)
            base = {}
            for vid, spec in enumerate(workload.variables()):
                base[spec.name] = malloc.malloc(
                    spec.size_bytes,
                    mapping_id=mapping_of_variable.get(vid, 0),
                    tag=spec.name,
                )
            external = engine.external_trace(
                workload.trace(base, eval_seed)
            )
            program_accesses += external.program_accesses
            intensity = getattr(workload, "compute_intensity", 1.0)
            compute_ns += (
                external.program_accesses
                * CPU_COMPUTE_NS_PER_ACCESS
                * intensity
            )
            ha = kernel.translate_to_hardware(space, external.trace.va)
            all_external.append(
                AccessTrace(
                    va=ha,
                    is_write=external.trace.is_write,
                    variable=external.trace.variable,
                )
            )
        combined = interleave_traces(all_external, chunk=8)
        model = WindowModel(
            self.hbm, max_inflight=engine.max_inflight * len(workloads)
        )
        stats = model.simulate(combined.va)
        live = sdam.cmt.live_mappings if sdam is not None else 1
        return CorunResult(
            stats=stats,
            compute_ns=compute_ns,
            live_mappings=live,
            workload_names=[w.name for w in workloads],
        )
