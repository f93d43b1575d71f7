"""Co-running applications sharing one SDAM machine.

Section 7.4 motivates the 4-cluster configurations with co-running
applications: the CMT supports 256 concurrent mappings *globally*, so
when many applications co-run, each gets only a few clusters and
several variables must share a mapping.  This module runs several
workloads concurrently — separate address spaces, one physical memory,
one CMT — with ``clusters_per_app`` clusters each, interleaving their
external traces, the multiprogrammed scenario the prototype's
globally-shared CMT is designed for.

Each application gets its own :class:`~repro.system.machine.Machine`,
which profiles it, selects its mappings and builds its allocation,
trace and compute time exactly as a single-application run would.  The
apps share one kernel and one CMT, so identical mappings are interned
once.  An app's K-Means selection yields at most ``clusters_per_app``
mappings, so the run checks once, before any profiling, that the
identity slot plus every app's clusters fit ``max_mappings``; past that
check the table cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chunks import ChunkGeometry
from repro.core.sdam import SDAMController
from repro.cpu.trace import AccessTrace, interleave_traces
from repro.errors import ConfigError
from repro.hbm.config import hbm2_config
from repro.hbm.fastmodel import WindowModel
from repro.hbm.stats import RunStats
from repro.mem.kernel import Kernel
from repro.system.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads.base import Workload

__all__ = ["CorunResult", "CorunMachine"]

#: Cores of each application's machine (the 4-core CPU engine).
CORES = 4


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
    """Several workloads, one memory system, one shared CMT.

    The memory system is :func:`~repro.hbm.config.hbm2_config` and each
    application runs on :data:`CORES` cores.
    """

    def __init__(
        self,
        use_sdam: bool = True,
        clusters_per_app: int = 4,
        max_mappings: int = 256,
        seed: int = 0,
    ):
        if clusters_per_app < 1:
            raise ConfigError("need at least one cluster per application")
        self.use_sdam = use_sdam
        self.clusters_per_app = clusters_per_app
        self.hbm = hbm2_config()
        self.geometry = ChunkGeometry(total_bytes=self.hbm.total_bytes)
        self.max_mappings = max_mappings
        self.seed = seed

    def _app_machine(self, app_index: int, workload: Workload) -> Machine:
        """The machine that profiles, selects and traces one application.

        K-Means selection with the machine's cluster budget per app,
        seeded per app.
        """
        system = SystemConfig(
            key=f"corun_app{app_index}",
            label=f"corun:{workload.name}",
            sdam=True,
            policy="default",
            clustering="kmeans",
            clusters=self.clusters_per_app,
        )
        return Machine(
            system,
            hbm=self.hbm,
            geometry=self.geometry,
            cores=CORES,
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
        needed = 1 + len(workloads) * self.clusters_per_app
        if self.use_sdam and needed > self.max_mappings:
            raise ConfigError(
                "mapping budget exhausted: the identity plus "
                f"{len(workloads)} apps x {self.clusters_per_app} clusters "
                f"need {needed} of {self.max_mappings} CMT slots"
            )
        sdam = (
            SDAMController(self.geometry, max_mappings=self.max_mappings)
            if self.use_sdam
            else None
        )
        kernel = Kernel(self.geometry, sdam=sdam)
        all_external: list[AccessTrace] = []
        max_inflight = 0
        compute_ns = 0.0
        for app_index, workload in enumerate(workloads):
            app = self._app_machine(app_index, workload)
            mapping_of_variable: dict[int, int] = {}
            if self.use_sdam:
                selection = app.select(
                    app.profile(workload, input_seed=profile_seed)
                )
                mapping_of_variable = app._register_selection(kernel, selection)
            space, _allocator, base, _registry = app._allocate(
                kernel, workload, mapping_of_variable
            )
            external = app._external(workload, base, eval_seed)
            compute_ns += app._compute_ns(workload, external)
            max_inflight += app.engine.max_inflight
            ha = kernel.translate_to_hardware(space, external.trace.va)
            all_external.append(
                AccessTrace(
                    va=ha,
                    is_write=external.trace.is_write,
                    variable=external.trace.variable,
                )
            )
        combined = interleave_traces(all_external, chunk=8)
        model = WindowModel(self.hbm, max_inflight=max_inflight)
        stats = model.simulate(combined.va)
        live = sdam.cmt.live_mappings if sdam is not None else 1
        return CorunResult(
            stats=stats,
            compute_ns=compute_ns,
            live_mappings=live,
            workload_names=[w.name for w in workloads],
        )
