"""Tenant-scoped machine core: shared immutable artifacts + per-tenant state.

The machine's state splits along one seam:

* :class:`SharedArtifacts` — the immutable, compile-once side every
  tenant reads: the :class:`~repro.hbm.config.HBMConfig`, the chunk
  geometry, the address layout, the shared
  :class:`~repro.hbm.plancache.PlanCache` of compiled GF(2) decode
  plans, and the backend defaults.  Nothing here changes after
  construction, so one instance can serve any number of tenants.
* :class:`TenantContext` — everything one tenant mutates: its kernel
  (address spaces, allocator, CMT driver state), its profiler outputs,
  its seeds and the one memory backend each run builds.  Two contexts
  share no mutable state.

:class:`~repro.system.machine.Machine` constructs one
:class:`TenantContext` over private artifacts and delegates to it;
:class:`~repro.system.corun.CorunMachine` builds one context per
co-running application over one shared set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.chunks import ChunkGeometry
from repro.core.hashing import default_hash_mapping
from repro.core.mapping import identity_mapping
from repro.core.sdam import GlobalMappingTranslator, SDAMController
from repro.core.selection import (
    MappingSelection,
    select_application_mapping,
    select_mappings_dl,
    select_mappings_kmeans,
)
from repro.core.bitshuffle import select_global_mapping
from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError
from repro.hbm.backend import available_backends, create_backend
from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.decode import (
    decode_trace,
    decode_translated,
    iter_decoded_chunks,
)
from repro.hbm.plancache import PlanCache, default_plan_cache
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.ml.dlkmeans import AutoencoderConfig
from repro.profiling.bfrv import bit_flip_rate_vector
from repro.profiling.profiler import WorkloadProfile, profile_trace
from repro.profiling.variables import VariableRegistry
from repro.workloads.base import Workload

if TYPE_CHECKING:  # import cycle: repro.system.machine imports this module
    from repro.system.config import SystemConfig

__all__ = [
    "ACCEL_COMPUTE_NS_PER_ACCESS",
    "CPU_COMPUTE_NS_PER_ACCESS",
    "SharedArtifacts",
    "TenantContext",
]

# End-to-end time model: compute overlaps poorly with a saturated memory
# system, so total time = memory makespan + accesses * per-access work.
CPU_COMPUTE_NS_PER_ACCESS = 1.0  # per-access pipeline work, BOOM-scaled
ACCEL_COMPUTE_NS_PER_ACCESS = 0.15  # deep custom pipelines


@dataclass(frozen=True)
class SharedArtifacts:
    """The immutable artifacts every tenant of a deployment shares.

    One instance per :class:`Machine` or co-run machine: the device
    model, the chunk geometry derived from it, the plan cache that
    amortises GF(2) compilation across tenants, and the default backend
    tier + options new tenants inherit.  All fields are
    read-only after construction; the plan cache is internally locked.
    """

    hbm: HBMConfig
    geometry: ChunkGeometry
    plan_cache: PlanCache
    backend: str = "fast"
    backend_options: dict = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        hbm: HBMConfig | None = None,
        geometry: ChunkGeometry | None = None,
        plan_cache: PlanCache | None = None,
        backend: str = "fast",
        backend_options: dict | None = None,
    ) -> "SharedArtifacts":
        """Build shared artifacts, deriving geometry from the device."""
        hbm = hbm or hbm2_config()
        if backend not in available_backends():
            raise ConfigError(
                f"unknown memory model {backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        return cls(
            hbm=hbm,
            geometry=geometry or ChunkGeometry(total_bytes=hbm.total_bytes),
            # Not ``or``: an empty PlanCache has len() 0 and is falsy.
            plan_cache=(
                plan_cache if plan_cache is not None else default_plan_cache()
            ),
            backend=backend,
            backend_options=dict(backend_options or {}),
        )

    def layout(self):
        """The device's hardware-address layout."""
        return self.hbm.layout()


class TenantContext:
    """One tenant's mutable half of the machine.

    Owns the tenant's system configuration, engine model, seeds and
    backend options, and runs the paper's profile -> select -> evaluate
    pipeline against the :class:`SharedArtifacts` it was built with.
    Every kernel, SDAM controller and backend it builds is private to
    the tenant; the only cross-tenant objects it touches are the
    immutable shared artifacts.
    """

    # Major-variable coverage for clustered selection.  The paper's 80%
    # rule identifies majors in real applications with thousands of
    # variables; our Table-1 models *are* the majors by construction,
    # so selection covers (nearly) all of them and leaves only the
    # modelled minor tail on the default mapping.
    SELECTION_COVERAGE = 0.95

    def __init__(
        self,
        name: str,
        system: SystemConfig,
        shared: SharedArtifacts,
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
        self.name = name
        self.system = system
        self.shared = shared
        self.hbm = shared.hbm
        self.geometry = shared.geometry
        self.layout = shared.layout()
        if engine == "cpu":
            self.engine = CPUModel(cores=cores)
            self.compute_ns_per_access = CPU_COMPUTE_NS_PER_ACCESS
        elif engine == "accelerator":
            self.engine = AcceleratorModel()
            self.compute_ns_per_access = ACCEL_COMPUTE_NS_PER_ACCESS
        else:
            raise ConfigError(f"unknown engine {engine!r}")
        if backend is None:
            backend = shared.backend
        if backend not in available_backends():
            raise ConfigError(
                f"unknown memory model {backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        self.backend = backend
        if backend_options is None:
            backend_options = shared.backend_options
        self.backend_options = dict(backend_options)
        self.chunk_accesses = chunk_accesses
        self.dl_config = dl_config
        self.seed = seed
        self.chunk_colours = chunk_colours
        self.debug_ha = debug_ha

    # -- building blocks -----------------------------------------------------
    def _allocate(
        self,
        kernel: Kernel,
        workload: Workload,
        mapping_of_variable: dict[int, int],
    ):
        space = kernel.spawn()
        allocator = MappingAwareAllocator(kernel, space)
        registry = VariableRegistry()
        base: dict[str, int] = {}
        for variable_id, spec in enumerate(workload.variables()):
            mapping_id = mapping_of_variable.get(variable_id, 0)
            va = allocator.malloc(
                spec.size_bytes, mapping_id=mapping_id, tag=spec.name
            )
            registry.record_allocation(spec.name, va, spec.size_bytes)
            base[spec.name] = va
        return space, allocator, base, registry

    def _external(self, workload: Workload, base: dict[str, int], seed: int):
        thread_traces = workload.trace(base, input_seed=seed)
        return self.engine.external_trace(thread_traces)

    # -- profiling pass --------------------------------------------------------
    def profile(self, workload: Workload, input_seed: int = 0) -> WorkloadProfile:
        """Offline profiling on the baseline system (Section 6.2)."""
        kernel = Kernel(self.geometry, sdam=None)
        space, _allocator, base, registry = self._allocate(kernel, workload, {})
        external = self._external(workload, base, input_seed)
        pa = space.translate_trace(external.trace.va)
        pa_trace = AccessTrace(
            va=pa,
            is_write=external.trace.is_write,
            variable=external.trace.variable,
        )
        return profile_trace(pa_trace, registry, name=workload.name)

    # -- mapping selection -------------------------------------------------------
    def select(self, profile: WorkloadProfile) -> MappingSelection:
        system = self.system
        if system.clustering == "kmeans":
            return select_mappings_kmeans(
                profile,
                system.clusters,
                self.layout,
                self.geometry,
                seed=self.seed,
                coverage=self.SELECTION_COVERAGE,
            )
        if system.clustering == "dl":
            return select_mappings_dl(
                profile,
                system.clusters,
                self.layout,
                self.geometry,
                config=self.dl_config,
                coverage=self.SELECTION_COVERAGE,
            )
        return select_application_mapping(profile, self.layout, self.geometry)

    def _global_translator(
        self, mix_profile: WorkloadProfile | None
    ) -> GlobalMappingTranslator:
        if self.system.policy == "default":
            return GlobalMappingTranslator(identity_mapping(self.layout.width))
        if self.system.policy == "hash":
            return GlobalMappingTranslator(default_hash_mapping(self.layout))
        # Global bit-shuffle from the workload-mix profile.
        if mix_profile is None or not mix_profile.profiles:
            return GlobalMappingTranslator(identity_mapping(self.layout.width))
        addresses = np.concatenate(
            [p.addresses for p in mix_profile.profiles]
        )
        rates = bit_flip_rate_vector(addresses, self.layout.width)
        return GlobalMappingTranslator(
            select_global_mapping(rates, self.layout)
        )

    # -- the full pipeline ----------------------------------------------------
    def run(
        self,
        workload: Workload,
        profile_seed: int = 0,
        eval_seed: int = 1,
        mix_profile: WorkloadProfile | None = None,
        profile: WorkloadProfile | None = None,
        selection: MappingSelection | None = None,
    ):
        """Profile (if needed), select mappings, evaluate, simulate.

        ``mix_profile`` overrides the profile used by the global
        ``BS+BSM`` policy — the experiment driver passes the suite-wide
        mix, matching the paper's methodology.  ``profile`` and
        ``selection`` inject precomputed stage outputs (the experiment
        runner's cache); when given, the corresponding pipeline stage
        is skipped.  Returns a
        :class:`~repro.system.machine.MachineResult`.
        """
        # Machine imports this module at class-definition time; resolve
        # the result type lazily to keep the dependency one-way at import.
        from repro.system.machine import MachineResult

        system = self.system
        profiling_seconds = 0.0

        if system.sdam:
            if selection is None:
                if profile is None:
                    profile = self.profile(workload, input_seed=profile_seed)
                selection = self.select(profile)
            profiling_seconds = selection.elapsed_seconds
            kernel = Kernel(
                self.geometry,
                sdam=SDAMController(self.geometry),
                chunk_colours=self.chunk_colours,
            )
            cluster_to_mapping = {
                index: kernel.add_addr_map(perm)
                for index, perm in enumerate(selection.window_perms)
            }
            mapping_of_variable = {
                variable_id: cluster_to_mapping[cluster]
                for variable_id, cluster in selection.variable_cluster.items()
            }
        else:
            kernel = Kernel(
                self.geometry, sdam=None, chunk_colours=self.chunk_colours
            )
            mapping_of_variable = {}
            if system.policy == "bsm" and mix_profile is None:
                mix_profile = profile or self.profile(
                    workload, input_seed=profile_seed
                )

        space, _allocator, base, _registry = self._allocate(
            kernel, workload, mapping_of_variable
        )
        external = self._external(workload, base, eval_seed)
        # The fused datapath: VA -> PA through the page table, then one
        # precomposed mapping∘decode pass per translation group straight
        # into the memory backend — no intermediate HA array.  With
        # ``debug_ha`` the legacy two-step (translate, then decode) runs
        # instead; the two are bit-identical (tested).
        pa = space.translate_trace(external.trace.va)
        if system.sdam:
            translator = kernel.address_translator
        else:
            translator = self._global_translator(mix_profile)
        backend = create_backend(
            self.backend,
            self.hbm,
            max_inflight=self.engine.max_inflight,
            **self.backend_options,
        )
        cache = self.shared.plan_cache
        if self.debug_ha:
            ha = translator.translate(pa)
            stats = backend.simulate_decoded(decode_trace(ha, self.hbm))
        elif self.chunk_accesses is not None or self.backend == "vector":
            # Streaming evaluate: decoded chunks flow straight into the
            # backend, so the decoded trace never fully materialises.
            # Chunking is bit-identical to whole-trace simulation for
            # every built-in tier (tested), so this only changes peak
            # memory.  Opt-in via ``chunk_accesses`` for fast/event;
            # the vector tier streams by default.
            stats = backend.simulate_decoded(
                iter_decoded_chunks(
                    pa,
                    translator,
                    self.hbm,
                    cache=cache,
                    **(
                        {"chunk_accesses": self.chunk_accesses}
                        if self.chunk_accesses is not None
                        else {}
                    ),
                )
            )
        else:
            stats = backend.simulate_decoded(
                decode_translated(pa, translator, self.hbm, cache=cache)
            )
        intensity = getattr(workload, "compute_intensity", 1.0)
        compute_ns = (
            external.program_accesses * self.compute_ns_per_access * intensity
        )
        return MachineResult(
            workload=workload.name,
            system=system.label,
            stats=stats,
            external=external,
            selection=selection,
            compute_ns=compute_ns,
            profiling_seconds=profiling_seconds,
            tier_traffic=getattr(backend, "last_traffic", None),
        )

    def __repr__(self) -> str:
        return (
            f"TenantContext({self.name!r}, system={self.system.key!r}, "
            f"backend={self.backend!r})"
        )
