"""The full machine: one platform running the paper's pipeline.

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

The co-run machine (:mod:`repro.system.corun`) builds one ``Machine``
per application for its profile, selection, allocation and trace
steps, over one shared kernel and CMT.

The returned :class:`MachineResult` carries the memory statistics plus
an end-to-end time model (memory makespan + a compute term proportional
to program accesses) from which experiment-level speedups are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitshuffle import select_global_mapping
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
from repro.cpu.accelerator import AcceleratorModel
from repro.cpu.cpu import CPUModel, ExternalTraceResult
from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError
from repro.hbm.backend import available_backends, create_backend
from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.decode import decode_translated, iter_decoded_chunks
from repro.hbm.stats import RunStats
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.ml.dlkmeans import AutoencoderConfig
from repro.profiling.bfrv import bit_flip_rate_vector
from repro.profiling.profiler import WorkloadProfile, profile_trace
from repro.profiling.variables import VariableRegistry
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

# End-to-end time model: compute overlaps poorly with a saturated memory
# system, so total time = memory makespan + accesses * per-access work.
CPU_COMPUTE_NS_PER_ACCESS = 1.0  # per-access pipeline work, BOOM-scaled
ACCEL_COMPUTE_NS_PER_ACCESS = 0.15  # deep custom pipelines


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

    Owns the system configuration, the device model and chunk geometry,
    the engine model, the seeds and the backend choice, and runs the
    paper's profile -> select -> evaluate pipeline.  Every run builds
    its own kernel, SDAM controller and backend, so runs of one machine
    share no state; compiled decode plans come from the process-wide
    :func:`~repro.hbm.plancache.default_plan_cache`.
    """

    # Major-variable coverage for clustered selection.  The paper's 80%
    # rule identifies majors in real applications with thousands of
    # variables; our Table-1 models *are* the majors by construction,
    # so selection covers (nearly) all of them and leaves only the
    # modelled minor tail on the default mapping.
    SELECTION_COVERAGE = 0.95

    def __init__(
        self,
        system: SystemConfig,
        hbm: HBMConfig | None = None,
        geometry: ChunkGeometry | None = None,
        engine: str = "cpu",
        cores: int = 4,
        backend: str = "fast",
        backend_options: dict | None = None,
        dl_config: AutoencoderConfig | None = None,
        seed: int = 0,
        chunk_colours: int = 8,
    ):
        if not isinstance(system, SystemConfig):
            raise ConfigError(
                f"system must be a SystemConfig, got {type(system).__name__}"
            )
        if engine == "cpu":
            self.engine = CPUModel(cores=cores)
            self.compute_ns_per_access = CPU_COMPUTE_NS_PER_ACCESS
        elif engine == "accelerator":
            self.engine = AcceleratorModel()
            self.compute_ns_per_access = ACCEL_COMPUTE_NS_PER_ACCESS
        else:
            raise ConfigError(f"unknown engine {engine!r}")
        if backend not in available_backends():
            raise ConfigError(
                f"unknown memory model {backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        backend_options = dict(backend_options or {})
        if "max_inflight" in backend_options:
            raise ConfigError(
                "backend option 'max_inflight' is not settable: the "
                f"engine sets the in-flight limit ({engine!r}: "
                f"{self.engine.max_inflight})"
            )
        if chunk_colours < 1:
            raise ConfigError(
                f"chunk_colours must be >= 1, got {chunk_colours}"
            )
        self.system = system
        self.hbm = hbm or hbm2_config()
        self.geometry = geometry or ChunkGeometry(
            total_bytes=self.hbm.total_bytes
        )
        self.layout = self.hbm.layout()
        self.backend = backend
        self.backend_options = backend_options
        self.dl_config = dl_config
        self.seed = seed
        self.chunk_colours = chunk_colours

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

    def _external(
        self, workload: Workload, base: dict[str, int], seed: int
    ) -> ExternalTraceResult:
        thread_traces = workload.trace(base, input_seed=seed)
        return self.engine.external_trace(thread_traces)

    def _compute_ns(
        self, workload: Workload, external: ExternalTraceResult
    ) -> float:
        intensity = getattr(workload, "compute_intensity", 1.0)
        return (
            external.program_accesses * self.compute_ns_per_access * intensity
        )

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
        """Mapping selection for this machine's system configuration."""
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
    ) -> MachineResult:
        """Profile (if needed), select mappings, evaluate, simulate.

        ``mix_profile`` overrides the profile used by the global
        ``BS+BSM`` policy — the experiment driver passes the suite-wide
        mix, matching the paper's methodology.  ``profile`` and
        ``selection`` inject precomputed stage outputs (the experiment
        runner's cache); when given, the corresponding pipeline stage
        is skipped.
        """
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
        # into the memory backend — no intermediate HA array.  It is
        # bit-identical to translating to HA and decoding that (tested).
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
        if self.backend == "vector":
            # Streaming evaluate: decoded chunks flow straight into the
            # backend, so the decoded trace never fully materialises.
            # Chunking is bit-identical to whole-trace simulation
            # (tested), so this only changes peak memory.
            decoded = iter_decoded_chunks(pa, translator, self.hbm)
        else:
            decoded = decode_translated(pa, translator, self.hbm)
        stats = backend.simulate_decoded(decoded)
        return MachineResult(
            workload=workload.name,
            system=system.label,
            stats=stats,
            external=external,
            selection=selection,
            compute_ns=self._compute_ns(workload, external),
            profiling_seconds=profiling_seconds,
            tier_traffic=getattr(backend, "last_traffic", None),
        )
