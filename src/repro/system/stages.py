"""Pure, picklable experiment stages and their cache keys.

The experiment pipeline for one (workload, system) cell decomposes
into a small DAG of stages:

.. code-block:: text

    workload spec ──> profile ──┬──> selection ──> evaluate ──> result
                                └──> suite mix ───────┘

* **profile** — run the workload on the baseline mapping and collect
  per-variable PA sub-traces (Section 6.2's offline pass).  Depends
  only on the workload spec, the device geometry, the engine front end
  and the profiling seed — *not* on the system under test — so one
  profile serves every system, the suite-wide mix, and any later sweep.
* **selection** — turn a profile into window permutations (direct,
  K-Means, or DL-assisted).  Depends on the profile plus the system's
  clustering configuration and seeds.
* **evaluate** — allocate with the chosen mappings, generate the
  evaluation-input trace, filter through the caches, translate, and
  simulate the memory device.

Every stage is a module-level function over picklable inputs, so the
runner can execute it in a worker process, and each has a
``*_cache_key`` companion hashing exactly the inputs that determine
its output (see :mod:`repro.core.keys`).  :class:`MachineParams`
captures a :class:`~repro.system.machine.Machine`'s constructor
arguments in hashable, picklable form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.chunks import ChunkGeometry
from repro.core.keys import stable_hash
from repro.core.selection import MappingSelection
from repro.cpu.trace import AccessTrace
from repro.hbm.config import HBMConfig, hbm2_config
from repro.ml.dlkmeans import AutoencoderConfig
from repro.profiling.profiler import WorkloadProfile, profile_trace
from repro.profiling.variables import VariableRegistry
from repro.system.config import SystemConfig
from repro.system.machine import Machine, MachineResult
from repro.workloads.base import Workload

__all__ = [
    "MachineParams",
    "build_mix_profile",
    "evaluate_cache_key",
    "evaluate_stage",
    "profile_cache_key",
    "profile_stage",
    "selection_cache_key",
    "selection_stage",
    "sweep_cache_key",
]

STAGE_VERSION = 3
"""Bump to invalidate every cached stage after a semantic change.

v2: the backend-selection redesign renamed ``MachineParams.
memory_model`` to ``backend`` — dataclass field names feed the stable
hash, so every stage key moved.

v3: guarded backend execution added ``guard``/``guard_sample``/
``guard_mode`` to :class:`MachineParams`; field names feed the stable
hash, so every stage key moved again.
"""


@dataclass(frozen=True)
class MachineParams:
    """A machine's constructor arguments, in picklable/hashable form."""

    system: SystemConfig
    hbm: HBMConfig | None = None
    geometry: ChunkGeometry | None = None
    engine: str = "cpu"
    cores: int = 4
    backend: str = "fast"
    dl_config: AutoencoderConfig | None = None
    seed: int = 0
    chunk_colours: int = 8
    guard: bool = False
    guard_sample: float | None = None
    guard_mode: str = "demote"

    @classmethod
    def from_kwargs(cls, system: SystemConfig, **machine_kwargs) -> "MachineParams":
        """Build params from ``Machine(...)`` keyword arguments."""
        return cls(system=system, **machine_kwargs)

    def with_system(self, system: SystemConfig) -> "MachineParams":
        """The same platform bound to a different system configuration."""
        return replace(self, system=system)

    def build(self) -> Machine:
        """Instantiate the machine."""
        return Machine(
            self.system,
            hbm=self.hbm,
            geometry=self.geometry,
            engine=self.engine,
            cores=self.cores,
            backend=self.backend,
            dl_config=self.dl_config,
            seed=self.seed,
            chunk_colours=self.chunk_colours,
            guard=self.guard,
            guard_sample=self.guard_sample,
            guard_mode=self.guard_mode,
        )

    # -- key fragments -------------------------------------------------------
    def platform_key_parts(self) -> dict:
        """The system-independent parts: what profiling depends on."""
        hbm = self.hbm or hbm2_config()
        geometry = self.geometry or ChunkGeometry(total_bytes=hbm.total_bytes)
        return {
            "geometry": geometry,
            "engine": self.engine,
            "cores": self.cores,
            # The HBM bit layout shapes PA width during translation.
            "hbm": hbm,
        }

    def selection_key_parts(self) -> dict:
        """What mapping selection depends on beyond the profile."""
        system = self.system
        return {
            "clustering": system.clustering,
            "clusters": system.clusters,
            "sdam": system.sdam,
            "seed": self.seed,
            "dl_config": self.dl_config,
            "coverage": Machine.SELECTION_COVERAGE,
        }


# ---------------------------------------------------------------------------
# Stage: profile
# ---------------------------------------------------------------------------

def profile_cache_key(
    params: MachineParams, workload: Workload, input_seed: int
) -> str:
    """Content hash of everything the profiling stage depends on."""
    return stable_hash(
        "profile",
        STAGE_VERSION,
        params.platform_key_parts(),
        workload.spec_dict(),
        input_seed,
    )


def profile_stage(
    params: MachineParams, workload: Workload, input_seed: int
) -> WorkloadProfile:
    """Offline profiling pass on the baseline mapping."""
    return params.build().profile(workload, input_seed=input_seed)


# ---------------------------------------------------------------------------
# Stage: mapping selection
# ---------------------------------------------------------------------------

def selection_cache_key(
    params: MachineParams, profile_key: str
) -> str:
    """Content hash of everything mapping selection depends on."""
    return stable_hash(
        "selection",
        STAGE_VERSION,
        profile_key,
        params.selection_key_parts(),
    )


def selection_stage(
    params: MachineParams, profile: WorkloadProfile
) -> MappingSelection:
    """Choose window permutations for a profiled workload."""
    return params.build().select(profile)


# ---------------------------------------------------------------------------
# Stage: suite mix (derived, cheap — runs in the parent)
# ---------------------------------------------------------------------------

def build_mix_profile(profiles: list[WorkloadProfile]) -> WorkloadProfile:
    """Combine per-workload profiles into the suite-wide mix profile.

    The global ``BS+BSM`` policy selects one mapping from the combined
    profile of every workload in the suite (Section 7.3); this reuses
    the per-workload profile stages instead of re-profiling.
    """
    addresses = [p.addresses for profile in profiles for p in profile.profiles]
    if not addresses:
        from repro.errors import ConfigError

        raise ConfigError("suite produced no profiled addresses")
    combined = np.concatenate(addresses)
    registry = VariableRegistry()
    registry.record_allocation("mix", 0, 1 << 40)
    trace = AccessTrace(va=combined)
    return profile_trace(trace, registry, name="suite-mix", use_tags=False)


# ---------------------------------------------------------------------------
# Stage: evaluate
# ---------------------------------------------------------------------------

def evaluate_cache_key(
    params: MachineParams,
    workload: Workload,
    profile_seed: int,
    eval_seed: int,
    mix_key: str | None,
) -> str:
    """Content hash of everything the evaluation stage depends on.

    ``mix_key`` identifies the suite-mix profile a ``BS+BSM`` cell was
    given (None when the policy does not consume one); two sweeps with
    different workload mixes must not share a ``BS+BSM`` result.
    """
    return stable_hash(
        "evaluate",
        STAGE_VERSION,
        params,
        workload.spec_dict(),
        profile_seed,
        eval_seed,
        mix_key,
    )


def sweep_cache_key(
    params: MachineParams,
    workloads: list[Workload],
    systems: list[SystemConfig],
    profile_seed: int,
    eval_seed: int,
) -> str:
    """Content hash identifying a whole (workloads x systems) sweep.

    Keys the sweep *manifest* — the per-cell outcome record resume
    reads — so two sweeps share a manifest exactly when they would
    share every cell.
    """
    return stable_hash(
        "sweep",
        STAGE_VERSION,
        params,
        [workload.spec_dict() for workload in workloads],
        list(systems),
        profile_seed,
        eval_seed,
    )


def evaluate_stage(
    params: MachineParams,
    workload: Workload,
    profile_seed: int,
    eval_seed: int,
    mix_profile: WorkloadProfile | None = None,
    profile: WorkloadProfile | None = None,
    selection: MappingSelection | None = None,
) -> MachineResult:
    """Run the full evaluation pipeline for one cell."""
    return params.build().run(
        workload,
        profile_seed=profile_seed,
        eval_seed=eval_seed,
        mix_profile=mix_profile,
        profile=profile,
        selection=selection,
    )
