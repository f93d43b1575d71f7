"""Sweeps: the one way to run (workloads x systems).

:class:`Session` runs a sweep as one workload-major loop over its
cells, in-process; :meth:`Session.compare` is the sweep of one workload
and :meth:`Session.run` its one-cell case.  Every sweep follows the
paper's method (§7.3): profile with one input, evaluate with another,
and select ``BS+BSM``'s global mapping from the suite mix.  A cell's
result is a small chain of stages, each a call on a
:class:`~repro.system.machine.Machine` built from the session's keyword
arguments:

.. code-block:: text

    workload ──> profile ──┬──> selection ──> run ──> result
                           └──> suite mix ─────┘

A sweep computes each stage once, in memory, and keeps nothing after it
returns: each workload is profiled at most once (and only if a cell
needs it), the suite mix is built by the first cell that needs it, and
each SDAM cell selects once and each cell runs once.  The table holds
each cell's own :class:`MachineResult`, its selection intact; only the
external trace arrays are dropped, as ``to_dict()`` drops them.

Results are returned in workload-major order.  A stage that raises is
recorded as a :class:`CellError` on every cell that needs its output,
and the sweep continues.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.ledger import PROVENANCE, SUM, Ledger, Record, key
from repro.profiling.profiler import WorkloadProfile
from repro.system.config import SystemConfig, standard_systems, system_by_key
from repro.system.experiment import SpeedupTable
from repro.system.machine import Machine, MachineResult
from repro.system.stages import build_mix_profile
from repro.workloads.base import Workload

__all__ = [
    "CellError",
    "Session",
    "StageMetrics",
    "SuiteResult",
]

STAGES = ("profile", "mix", "selection", "evaluate")


@dataclass(eq=False)
class StageMetrics(Ledger):
    """Aggregated accounting for one stage across a sweep."""

    stage: str = field(metadata=key("stages"))
    wall_seconds: float = field(default=0.0, metadata=SUM)
    runs: int = field(default=0, metadata=SUM)
    bytes_simulated: int = field(default=0, metadata=SUM)


@dataclass(frozen=True)
class CellError(Record):
    """One failed cell: where it failed and why; the sweep continued."""

    workload: str
    system: str
    stage: str
    message: str


@dataclass
class SuiteResult(Record):
    """A sweep's results plus per-stage structured metrics.

    The metrics and wall time say how the sweep ran (stage runs,
    seconds), not what it computed, so two sweeps of the same cells
    have one :meth:`fingerprint`.
    """

    table: SpeedupTable
    errors: list[CellError] = field(default_factory=list)
    metrics: dict[str, StageMetrics] = field(
        default_factory=dict, metadata=PROVENANCE
    )
    wall_seconds: float = field(default=0.0, metadata=PROVENANCE)

    @property
    def bytes_simulated(self) -> int:
        """Bytes moved by the sweep's simulated cells."""
        return sum(m.bytes_simulated for m in self.metrics.values())

    def raise_errors(self) -> "SuiteResult":
        """Raise if any cell failed; otherwise return self."""
        if self.errors:
            first = self.errors[0]
            raise ConfigError(
                f"{len(self.errors)} cell(s) failed; first: "
                f"{first.workload} on {first.system} in {first.stage}: "
                f"{first.message}"
            )
        return self


_MACHINE = inspect.signature(Machine)


def _resolve(system: SystemConfig | str) -> SystemConfig:
    return system if isinstance(system, SystemConfig) else system_by_key(system)


def _unique(kind: str, names: list[str], why: str) -> None:
    """Raise :class:`ConfigError` on the first name given twice."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"two {kind} are named {name!r}: {why}")
        seen.add(name)


def _uses_mix(system: SystemConfig) -> bool:
    """Whether a system's cells consume the suite-wide mix profile."""
    return system.policy == "bsm" and not system.sdam


class _StageFailed(Exception):
    """A stage a cell needs raised; the cell becomes a :class:`CellError`."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.message = message


def _unless_failed(outcome):
    """``outcome``, unless it is a :class:`_StageFailed`: then raise it."""
    if isinstance(outcome, _StageFailed):
        raise outcome
    return outcome


class Session:
    """Runs (workload x system) sweeps, in-process.

    ``machine_kwargs`` are ``Machine``'s keyword arguments (``hbm``,
    ``engine``, ``backend``, ``backend_options``, ``dl_config``, ...),
    for every cell.  A name ``Machine`` does not take, or a value it
    rejects, raises :class:`~repro.errors.ConfigError` here.
    """

    def __init__(self, **machine_kwargs):
        try:
            _MACHINE.bind(None, **machine_kwargs)
        except TypeError as exc:
            raise ConfigError(f"Machine: {exc}") from None
        self.machine_kwargs = machine_kwargs
        self._machine(system_by_key("bs_dm"))

    def _machine(self, system: SystemConfig) -> Machine:
        return Machine(system, **self.machine_kwargs)

    def sweep(
        self,
        workloads: list[Workload],
        systems: list[SystemConfig | str] | None = None,
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
    ) -> SuiteResult:
        """Run every workload under every system.

        Speedups are reported against the first system in ``systems``
        (``BS+DM`` in the standard set).  Workload names and system
        labels must be unique.  A stage that raises becomes a
        :class:`CellError` on every cell that needs it;
        :meth:`SuiteResult.raise_errors` turns those into an exception.
        """
        sweep_start = time.perf_counter()
        systems = [_resolve(s) for s in systems or standard_systems()]
        if not workloads:
            raise ConfigError("no workloads given")
        _unique(
            "workloads",
            [workload.name for workload in workloads],
            "profiles, the mix and the result table are keyed by workload name",
        )
        _unique(
            "systems",
            [system.label for system in systems],
            "the result table is keyed by system label",
        )
        metrics = {stage: StageMetrics(stage) for stage in STAGES}

        def attempt(stage: str, compute):
            """``compute()``, timed as one run of ``stage``, or the
            :class:`_StageFailed` it raised."""
            metrics[stage].runs += 1
            start = time.perf_counter()
            try:
                return compute()
            except Exception as exc:  # noqa: BLE001 — recorded on the cell
                return _StageFailed(stage, f"{type(exc).__name__}: {exc}")
            finally:
                metrics[stage].wall_seconds += time.perf_counter() - start

        # This sweep's profile of each workload, or its failure.
        profiles: dict[str, WorkloadProfile | _StageFailed] = {}

        def profile(workload: Workload) -> WorkloadProfile | _StageFailed:
            if workload.name not in profiles:
                profiles[workload.name] = attempt(
                    "profile",
                    lambda: self._machine(systems[0]).profile(
                        workload, input_seed=profile_seed
                    ),
                )
            return profiles[workload.name]

        @functools.cache
        def suite_mix() -> WorkloadProfile | _StageFailed:
            """The suite mix, which folds in every workload's profile."""
            folded = [profile(workload) for workload in workloads]
            for workload, outcome in zip(workloads, folded):
                if isinstance(outcome, _StageFailed):
                    return _StageFailed(
                        "profile",
                        f"suite mix: profile of {workload.name} failed: "
                        f"{outcome.message}",
                    )
            return attempt("mix", lambda: build_mix_profile(folded))

        def cell(workload: Workload, system: SystemConfig) -> MachineResult:
            """One cell's result; a failed stage raises."""
            selection = mix_profile = None
            if system.sdam:
                own = _unless_failed(profile(workload))
                selection = _unless_failed(
                    attempt(
                        "selection", lambda: self._machine(system).select(own)
                    )
                )
            elif _uses_mix(system):
                mix = suite_mix()
                # A cell whose own profile failed reports that failure.
                _unless_failed(profile(workload))
                mix_profile = _unless_failed(mix)
            result = _unless_failed(
                attempt(
                    "evaluate",
                    lambda: self._machine(system).run(
                        workload,
                        profile_seed=profile_seed,
                        eval_seed=eval_seed,
                        mix_profile=mix_profile,
                        selection=selection,
                    ),
                )
            )
            metrics["evaluate"].bytes_simulated += int(result.stats.bytes_moved)
            # The selection stays live; the external trace arrays are
            # dropped, as to_dict() drops them: every cell's stream held
            # to the sweep's end would raise its peak RSS by half.
            return replace(result, external=result.external_summary())

        table = SpeedupTable(baseline_label=systems[0].label)
        errors: list[CellError] = []
        for workload in workloads:
            for system in systems:
                try:
                    table.add(cell(workload, system))
                except _StageFailed as failure:
                    errors.append(
                        CellError(
                            workload.name,
                            system.key,
                            failure.stage,
                            failure.message,
                        )
                    )
        return SuiteResult(
            table=table,
            errors=errors,
            metrics=metrics,
            wall_seconds=time.perf_counter() - sweep_start,
        )

    def compare(
        self,
        workload: Workload,
        systems: tuple[SystemConfig | str, ...] = (
            "bs_dm",
            "bs_hm",
            "sdm_bsm",
            "sdm_bsm_ml4",
        ),
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
    ) -> dict[str, MachineResult]:
        """One workload under several systems, as one :meth:`sweep`;
        raises on the first failed cell.

        Results are keyed by the *caller's* system key.  A ``BS+BSM``
        cell's suite mix is the workload's own profile, exactly what
        ``Machine.run`` uses without a suite context.
        """
        resolved = [_resolve(system) for system in systems]
        suite = self.sweep(
            [workload],
            resolved,
            profile_seed=profile_seed,
            eval_seed=eval_seed,
        )
        if suite.errors:
            error = suite.errors[0]
            raise ConfigError(
                f"{workload.name} on {error.system} failed in "
                f"{error.stage}: {error.message}"
            )
        row = suite.table.results[workload.name]
        return {
            system if isinstance(system, str) else system.key: row[config.label]
            for system, config in zip(systems, resolved)
        }

    def run(
        self,
        workload: Workload,
        system: SystemConfig | str = "sdm_bsm",
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
    ) -> MachineResult:
        """One (workload, system) cell: the one-system :meth:`compare`."""
        (result,) = self.compare(
            workload,
            (system,),
            profile_seed=profile_seed,
            eval_seed=eval_seed,
        ).values()
        return result
