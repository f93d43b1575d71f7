"""Convenience surface: one import for the common SDAM workflows.

The primary entry point is :class:`Session` — it owns a stage cache,
so every run/compare/sweep is memoised by default::

    from repro import Session

    session = Session()
    result = session.run(mixed_stride_workload(), "sdm_bsm_ml4")
    sweep = session.sweep(workloads)          # cached
    sweep.table.geomean("SDM+BSM+ML(4)")

For anything beyond these helpers, use the subsystem packages directly
(``repro.core``, ``repro.hbm``, ``repro.mem``, ``repro.cpu``,
``repro.profiling``, ``repro.ml``, ``repro.workloads``,
``repro.system``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core import (
    ChunkGeometry,
    MappingSelection,
    SDAMController,
    select_application_mapping,
)
from repro.hbm import HBMConfig, WindowModel, hbm2_config
from repro.ml import AutoencoderConfig
from repro.online import (
    AdaptiveCampaignResult,
    AdaptiveController,
    run_adaptive_campaign,
)
from repro.ras import (
    CampaignResult,
    DeviceFaultPlan,
    DeviceFaultSpec,
    RASReport,
)
from repro.ras import run_campaign as run_ras_campaign
from repro.system import (
    ExperimentRunner,
    Machine,
    MachineResult,
    SuiteResult,
    SystemConfig,
    run_suite,
    standard_systems,
    system_by_key,
)
from repro.system.runner import _machine_args
from repro.workloads import (
    MixedStrideWorkload,
    StridedCopyWorkload,
    Workload,
    data_intensive_suite,
    parsec_suite,
    spec2006_suite,
)

__all__ = [
    "AdaptiveCampaignResult",
    "AdaptiveController",
    "CampaignResult",
    "DeviceFaultPlan",
    "DeviceFaultSpec",
    "MappingSelection",
    "RASReport",
    "Session",
    "run_adaptive_campaign",
    "run_ras_campaign",
    "select_application_mapping",
    "default_cache_dir",
    "evaluation_workloads",
    "strided_workload",
    "mixed_stride_workload",
]

QUICK_DL_CONFIG = AutoencoderConfig(pretrain_steps=40, joint_steps=20)

_UNSET = object()  # "use the default cache dir" sentinel


def default_cache_dir() -> str:
    """The default on-disk stage cache location.

    ``$REPRO_CACHE_DIR`` wins; otherwise a ``repro-sdam`` directory
    under ``$XDG_CACHE_HOME`` (or ``~/.cache``).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return str(Path(xdg) / "repro-sdam")


def _resolve_system(system: str | SystemConfig) -> SystemConfig:
    return system if isinstance(system, SystemConfig) else system_by_key(system)


class Session:
    """An experiment session: one stage cache, one platform.

    Every ``run``/``compare``/``sweep`` goes through a shared
    :class:`~repro.system.runner.ExperimentRunner`, so profiling
    passes, mapping selections and whole results are computed once and
    reused — across systems, across calls, and (through the on-disk
    cache) across processes.

    Parameters
    ----------
    cache_dir:
        Stage-cache directory.  Defaults to :func:`default_cache_dir`;
        pass ``None`` to keep the cache in memory only.
    machine_kwargs:
        Platform configuration forwarded to every
        :class:`~repro.system.machine.Machine` (``hbm``, ``engine``,
        ``backend``, ``backend_options``, ``dl_config``, ...); every
        one is part of each cached entry's key.  A name ``Machine``
        does not take, or a value it rejects (an unknown backend or
        backend option), raises :class:`~repro.errors.ConfigError`
        here.
    """

    def __init__(
        self,
        cache_dir: str | None | object = _UNSET,
        **machine_kwargs,
    ):
        if cache_dir is _UNSET:
            cache_dir = default_cache_dir()
        # Checks every platform and backend option, as ``run_suite`` does.
        Machine(**_machine_args(system_by_key("bs_dm"), machine_kwargs))
        self.machine_kwargs = machine_kwargs
        self.runner = ExperimentRunner(cache_dir=cache_dir)

    # -- introspection -------------------------------------------------------
    @property
    def cache_dir(self) -> str | None:
        """Where stage outputs are persisted (None = memory only)."""
        return self.runner.cache_dir

    def __repr__(self) -> str:
        return f"Session(cache_dir={self.cache_dir!r})"

    # -- the API -------------------------------------------------------------
    def _machine_kwargs(self, backend: str | None) -> dict:
        """Session-wide machine kwargs; ``backend`` overrides the memory
        fidelity tier for one call."""
        kwargs = dict(self.machine_kwargs)
        if backend is not None:
            kwargs["backend"] = backend
        return kwargs

    def run(
        self,
        workload: Workload,
        system: str | SystemConfig = "sdm_bsm",
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
    ) -> MachineResult:
        """One workload under one system, cached.

        ``backend`` selects the memory fidelity tier (``"fast"``,
        ``"vector"``, ``"event"``) for this call, overriding the
        session-wide machine configuration.
        """
        return self.runner.run_one(
            workload,
            _resolve_system(system),
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            **self._machine_kwargs(backend),
        )

    def compare(
        self,
        workload: Workload,
        systems: tuple[str | SystemConfig, ...] = (
            "bs_dm",
            "bs_hm",
            "sdm_bsm",
            "sdm_bsm_ml4",
        ),
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
    ) -> dict[str, MachineResult]:
        """One workload under several systems, keyed by the *caller's*
        system key (so duplicate labels cannot collide)."""
        results: dict[str, MachineResult] = {}
        for system in systems:
            config = _resolve_system(system)
            key = system if isinstance(system, str) else config.key
            results[key] = self.run(
                workload,
                config,
                profile_seed=profile_seed,
                eval_seed=eval_seed,
                backend=backend,
            )
        return results

    def sweep(
        self,
        workloads: list[Workload],
        systems: list[SystemConfig | str] | None = None,
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
    ) -> SuiteResult:
        """Every workload under every system: cached and
        failure-isolated.

        Returns a :class:`~repro.system.runner.SuiteResult` carrying
        the speedup table, per-stage metrics (wall time, cache
        hits/misses, bytes simulated) and any per-cell errors.
        """
        resolved = (
            [_resolve_system(s) for s in systems] if systems else None
        )
        return self.runner.run_suite(
            workloads,
            systems=resolved,
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            **self._machine_kwargs(backend),
        )

    def full_evaluation(self, *, quick: bool = True) -> SuiteResult:
        """The Fig. 12 sweep: all workloads x all systems.

        ``quick=True`` trims the suites and, unless the session sets
        its own ``dl_config``, uses a small DL configuration for this
        call only; ``quick=False`` reproduces the full benchmark run
        (minutes, cold).
        """
        kwargs = dict(self.machine_kwargs)
        if quick:
            kwargs.setdefault("dl_config", QUICK_DL_CONFIG)
        return self.runner.run_suite(
            evaluation_workloads(quick=quick),
            systems=standard_systems(),
            **kwargs,
        )


def evaluation_workloads(*, quick: bool = True) -> list[Workload]:
    """The Fig. 12 workload population (trimmed when ``quick``)."""
    workloads = spec2006_suite() + parsec_suite() + data_intensive_suite()
    return workloads[:4] if quick else workloads


def strided_workload(stride_lines: int = 16, **kwargs) -> Workload:
    """The paper's synthetic data copy at one stride."""
    return StridedCopyWorkload(stride_lines=stride_lines, **kwargs)


def mixed_stride_workload(
    strides: tuple[int, ...] = (1, 4, 8, 16), **kwargs
) -> Workload:
    """The four-pattern mix of Fig. 4 / Fig. 11."""
    return MixedStrideWorkload(strides=strides, **kwargs)
