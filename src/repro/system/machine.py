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

import copy
import functools
import mmap
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.bitshuffle import select_global_mapping
from repro.core.chunks import ChunkGeometry
from repro.core.hashing import default_hash_mapping
from repro.core.sdam import (
    GlobalMappingTranslator,
    SDAMController,
    identity_translator,
)
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
from repro.hbm.backend import create_backend
from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.decode import decode_translated
from repro.hbm.stats import RunStats
from repro.ledger import Record
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.mem.virtual import AddressSpace
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
class MachineResult(Record):
    """Everything one pipeline run produced.

    Its :meth:`to_dict`, :meth:`from_dict` and :meth:`fingerprint` are
    written out: they are the ``repro suite --json`` and ``sim_digest``
    format, and they reduce the external stream and the selection by
    hand.
    """

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
        the round trip.
        """
        external = self.external_summary()
        selection = None
        if self.selection is not None:
            selection = {
                "method": self.selection.method,
                "k": int(self.selection.k),
                "num_mappings": self.selection.num_mappings,
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
        # Only present for tiered runs: keeps the dict (and every
        # fingerprint) of the other tiers unchanged.
        if self.tier_traffic is not None:
            data["tier_traffic"] = self.tier_traffic.to_dict()
        return data

    def fingerprint(self) -> dict:
        """:meth:`to_dict` with wall-clock timing fields zeroed.

        Two runs of the same cell are bit-identical on everything but
        the host's measured profiling time; this is the deterministic
        content, for equivalence checks across runs.
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


_TRACE_FIELDS = ("va", "is_write", "variable")


class _LastStream:
    """The last cache-filtered external stream, for the next run to reuse.

    A run's stream is a pure function of the engine (its type and
    constructor fields, ``vars(engine)``) and the thread traces, and
    every package workload's traces are a pure function of its public
    attributes, the variables' base addresses and the input seed: it
    seeds its own generator from ``input_seed``, writes no public
    attribute outside ``__init__``, and keeps only lazily built inputs
    derived from the public ones in private attributes (the
    :meth:`~repro.workloads.base.Workload.spec_dict` contract).  So
    :meth:`external` reuses the kept result, without calling
    ``workload.trace``, for the *same program input*: the same engine
    key, the same workload object, public attributes ``==`` to a deep
    copy taken when the entry was written, equal base addresses and an
    equal seed.  Anything else generates and filters again.  An
    attribute whose ``==`` raises (an ndarray) makes the run a miss.

    The key is built from the attributes, not from a hash of
    :meth:`~repro.workloads.base.Workload.spec_dict`, which would load
    the content-keying module on the run path.

    The entry also keeps the physical-address trace of the latest
    non-SDAM run of its stream (:meth:`physical`), keyed on that
    kernel's chunk geometry and colours.  On a kernel without SDAM
    every variable faults into mapping 0's chunks, so the PA is a pure
    function of the program input, the geometry and the colours:
    BS+DM, BS+BSM and BS+HM differ only in the boot-time PA->HA
    mapping, after translation.  An SDAM kernel places each variable
    by its selected mapping, so its runs neither read nor write the
    kept PA.  The PA goes when its entry is replaced or cleared, and a
    caller still holding a replaced stream walks and keeps nothing.

    Sweeps run workload-major, so a repeated stream comes right after
    the run that produced it: one entry catches every repeat within a
    pass, and a pass that starts with its profile input takes none
    across passes.  The entry is written only after the trace and the
    filter succeed, so a run that raises leaves the previous entry
    whole.  The result's three arrays and the kept PA are read-only,
    since every run that hits shares them.  Each check and its fill
    hold one lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Forget the kept stream."""
        self._engine = None
        self._program: tuple | None = None
        self._result: ExternalTraceResult | None = None
        self._pa_key: tuple | None = None
        self._pa: np.ndarray | None = None

    def external(
        self, engine, workload: Workload, base: dict[str, int], seed: int
    ) -> ExternalTraceResult:
        """``engine.external_trace(workload.trace(base, input_seed=seed))``,
        reused on a repeat."""
        key = (type(engine), vars(engine))
        with self._lock:
            if (
                self._result is not None
                and key == self._engine
                and self._same_program(workload, base, seed)
            ):
                return self._result
            # Copied before ``trace`` runs, so the key describes the
            # input the traces were generated from.
            program = _program_key(workload, base, seed)
            thread_traces = workload.trace(base, input_seed=seed)
            result = _read_only(engine.external_trace(thread_traces))
            self._engine = (type(engine), dict(vars(engine)))
            self._program = program
            self._result = result
            self._pa_key = self._pa = None
            return result

    def physical(
        self, external: ExternalTraceResult, kernel: Kernel, space: AddressSpace
    ) -> np.ndarray:
        """``space.translate_trace(external.trace.va)``, reused while
        ``external`` is the kept stream and the kernel, without SDAM,
        has the kept geometry and chunk colours.

        A reused PA skips the page walk and its first-touch faults, so
        ``space`` is left unpopulated; a run reads nothing else of it.
        """
        if kernel.sdam_enabled:
            return space.translate_trace(external.trace.va)
        key = (kernel.geometry, kernel.physical.chunk_colours)
        with self._lock:
            if external is self._result and key == self._pa_key:
                return self._pa
            pa = _off_heap(space.translate_trace(external.trace.va))
            if external is self._result:
                self._pa_key, self._pa = key, pa
            return pa

    def _same_program(
        self, workload: Workload, base: dict[str, int], seed: int
    ) -> bool:
        if self._program is None:
            return False
        kept_workload, kept_public, kept_base, kept_seed = self._program
        if workload is not kept_workload:
            return False
        try:
            return bool(
                _public(workload) == kept_public
                and dict(base) == kept_base
                and seed == kept_seed
            )
        except (TypeError, ValueError):  # no plain ``==`` (an ndarray)
            return False


def _public(workload: Workload) -> dict:
    """The workload's public instance attributes."""
    return {
        name: value
        for name, value in vars(workload).items()
        if not name.startswith("_")
    }


def _program_key(
    workload: Workload, base: dict[str, int], seed: int
) -> tuple | None:
    """What :class:`_LastStream` compares, or None (never equal) for a
    workload whose attributes cannot be copied."""
    try:
        public = copy.deepcopy(_public(workload))
    except (TypeError, copy.Error):
        return None
    return (workload, public, dict(base), seed)


def _read_only(result: ExternalTraceResult) -> ExternalTraceResult:
    """``result`` with its trace arrays marked read-only.

    Every engine returns arrays that share no memory with its input
    (``tests/cpu/test_external_alias.py``), so this never freezes a
    caller's own trace.
    """
    for name in _TRACE_FIELDS:
        getattr(result.trace, name).setflags(write=False)
    return result


def _off_heap(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array`` in an anonymous mapping of its own.

    The kept PA outlives the temporaries of the run that made it.  In
    the malloc heap it pinned the pages around it, and ``fig15-accel``'s
    peak RSS rose 1.8 MB over four passes; its own mapping goes back to
    the OS when the copy is dropped, and the peak stayed put.
    """
    kept = np.frombuffer(
        mmap.mmap(-1, max(array.nbytes, 1)), dtype=array.dtype, count=array.size
    )
    kept[:] = array
    kept.setflags(write=False)
    return kept


#: The one process-wide holder every ``Machine`` run filters through.
_LAST_STREAM = _LastStream()


@functools.lru_cache(maxsize=16)
def _hash_translator(hbm: HBMConfig) -> GlobalMappingTranslator:
    """BS+HM's boot-time mapping for ``hbm``, built once per config.

    It is a pure function of the address layout, and building it (the
    fold matrix, its GF(2) inverse and the compiled operator) cost
    about a millisecond per run.  A translator holds no run state.
    """
    return GlobalMappingTranslator(default_hash_mapping(hbm.layout()))


class _MixTranslator:
    """BS+BSM's boot-time translator for the last suite mix.

    BS+BSM selects one global mapping from the suite-wide mix profile:
    it concatenates the mix's addresses, computes their bit-flip rates
    and runs :func:`select_global_mapping`, 3.2 ms per run on
    ``fig12-cpu``'s mix of 96,981 addresses (2-vCPU VM).  The mapping
    is a pure function of the mix's addresses and the ``HBMConfig``,
    and a sweep passes one mix object to all of its BS+BSM runs, so
    the translator is kept for the mix object it was built from (held
    weakly and compared with ``is``: a mix is not modified after it is
    built) and the config.  The check and its fill hold one lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Forget the kept translator."""
        self._mix: weakref.ref | None = None
        self._hbm: HBMConfig | None = None
        self._translator: GlobalMappingTranslator | None = None

    def get(
        self, mix: WorkloadProfile, hbm: HBMConfig
    ) -> GlobalMappingTranslator:
        """The translator of the mapping selected from ``mix``."""
        with self._lock:
            if (
                self._mix is not None
                and self._mix() is mix
                and self._hbm == hbm
            ):
                return self._translator
            layout = hbm.layout()
            addresses = np.concatenate([p.addresses for p in mix.profiles])
            rates = bit_flip_rate_vector(addresses, layout.width)
            translator = GlobalMappingTranslator(
                select_global_mapping(rates, layout)
            )
            self._mix, self._hbm = weakref.ref(mix), hbm
            self._translator = translator
            return translator


#: The one process-wide holder of BS+BSM's translator.
_MIX_TRANSLATOR = _MixTranslator()


class Machine:
    """One simulated platform bound to a system configuration.

    Owns the system configuration, the device model and chunk geometry,
    the engine model, the seeds and the backend choice, and runs the
    paper's profile -> select -> evaluate pipeline.  Every run builds
    its own kernel, SDAM controller and backend.  Four things are
    shared across runs and machines, none of which changes a result:
    the compiled decode plans of the process-wide
    :func:`~repro.hbm.plancache.default_plan_cache`, the BS+HM
    translator of each ``HBMConfig``, the BS+BSM translator of the
    last suite mix (:class:`_MixTranslator`), and the last cache-filtered
    external stream with its PA trace (:class:`_LastStream`).  A run
    whose engine, workload object, public workload attributes, base
    addresses and seed repeat the previous run's reuses that stream
    read-only, skipping ``workload.trace`` and the filter; a non-SDAM
    run also skips the page walk when the PA is kept for its chunk
    geometry and colours.
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
        # Bind the options now: a bad one fails here, not after the
        # profiling and selection a run pays for first.
        self._new_backend()

    # -- building blocks -----------------------------------------------------
    def _new_backend(self):
        return create_backend(
            self.backend,
            self.hbm,
            max_inflight=self.engine.max_inflight,
            **self.backend_options,
        )

    @staticmethod
    def _register_selection(
        kernel: Kernel, selection: MappingSelection
    ) -> dict[int, int]:
        """``add_addr_map`` each cluster's mapping, in cluster order.

        :class:`MappingSelection` numbers clusters by their members'
        major order, so the order, and with it each mapping's id and
        chunk colour, does not depend on a clusterer's labels.
        Returns the mapping id of every variable the selection binds.
        """
        cluster_to_mapping = {
            index: kernel.add_addr_map(perm)
            for index, perm in enumerate(selection.window_perms)
        }
        return {
            variable_id: cluster_to_mapping[cluster]
            for variable_id, cluster in selection.variable_cluster.items()
        }

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
        return _LAST_STREAM.external(self.engine, workload, base, seed)

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
        pa = _LAST_STREAM.physical(external, kernel, space)
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
            return identity_translator(self.layout.width)
        if self.system.policy == "hash":
            return _hash_translator(self.hbm)
        # Global bit-shuffle from the workload-mix profile.
        if mix_profile is None or not mix_profile.profiles:
            return identity_translator(self.layout.width)
        return _MIX_TRANSLATOR.get(mix_profile, self.hbm)

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
        ``selection`` inject precomputed stage outputs (the sweep's
        shared profile and selection); when given, the corresponding
        pipeline stage is skipped.
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
            mapping_of_variable = self._register_selection(kernel, selection)
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
        pa = _LAST_STREAM.physical(external, kernel, space)
        if system.sdam:
            translator = kernel.address_translator
        else:
            translator = self._global_translator(mix_profile)
        backend = self._new_backend()
        stats = backend.simulate_decoded(
            decode_translated(pa, translator, self.hbm)
        )
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
