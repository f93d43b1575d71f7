"""Parallel, cached experiment execution engine.

:class:`ExperimentRunner` turns a (workloads x systems) sweep into the
stage DAG of :mod:`repro.system.stages`, memoises every stage output —
in memory for the lifetime of the runner and on disk through a
:class:`~repro.system.tracefile.StageStore` — and, given more than one
worker, maps the remaining independent stages over a
``ProcessPoolExecutor``:

1. *Plan*: compute every cell's result key; cells whose result is
   already cached are done without touching a worker.
2. *Profile*: the unique profiling stages the remaining cells need
   (one per workload, shared by every system) run first.
3. *Evaluate*: the remaining cells run, each computing (or receiving)
   its mapping selection and simulating the memory system.  Results
   come back as serialised dicts, so parallel, serial and cached cells
   are exactly interchangeable.

Results are returned in deterministic (workload-major) order.  A stage
that raises is recorded as a :class:`CellError` on every cell that
needs its output, and the sweep continues; a worker process that dies
breaks the pool, and that error propagates out of
:meth:`ExperimentRunner.run_suite`.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from repro.core.keys import stable_hash
from repro.core.selection import MappingSelection
from repro.errors import ConfigError
from repro.ledger import SUM, Ledger, key
from repro.profiling.profiler import WorkloadProfile
from repro.system.config import SystemConfig, standard_systems
from repro.system.experiment import SpeedupTable
from repro.system.machine import MachineResult
from repro.system.stages import (
    MachineParams,
    build_mix_profile,
    evaluate_cache_key,
    evaluate_stage,
    profile_cache_key,
    profile_stage,
    selection_cache_key,
    selection_stage,
)
from repro.system.tracefile import StageStore
from repro.workloads.base import Workload

__all__ = [
    "CellError",
    "ExperimentRunner",
    "StageMetrics",
    "SuiteResult",
]

STAGES = ("profile", "mix", "selection", "evaluate")


@dataclass(eq=False)
class StageMetrics(Ledger):
    """Aggregated accounting for one stage across a sweep."""

    stage: str = field(metadata=key("stages"))
    wall_seconds: float = field(default=0.0, metadata=SUM)
    cache_hits: int = field(default=0, metadata=SUM)
    cache_misses: int = field(default=0, metadata=SUM)
    bytes_simulated: int = field(default=0, metadata=SUM)


@dataclass(frozen=True)
class CellError:
    """One failed cell: where it failed and why; the sweep continued."""

    workload: str
    system: str
    stage: str
    message: str

    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return asdict(self)


@dataclass
class SuiteResult:
    """A sweep's results plus per-stage structured metrics."""

    table: SpeedupTable
    errors: list[CellError] = field(default_factory=list)
    metrics: dict[str, StageMetrics] = field(default_factory=dict)
    wall_seconds: float = 0.0
    workers: int = 0

    @property
    def cache_hits(self) -> int:
        """Stage-cache hits across the whole sweep."""
        return sum(m.cache_hits for m in self.metrics.values())

    @property
    def cache_misses(self) -> int:
        """Stage-cache misses across the whole sweep."""
        return sum(m.cache_misses for m in self.metrics.values())

    @property
    def bytes_simulated(self) -> int:
        """Bytes moved by freshly simulated cells (cache hits excluded)."""
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

    def to_dict(self) -> dict:
        """A JSON-serialisable form; :meth:`from_dict` round-trips it."""
        return {
            "table": self.table.to_dict(),
            "errors": [e.to_dict() for e in self.errors],
            "metrics": {
                stage: m.to_dict() for stage, m in self.metrics.items()
            },
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
        }

    def to_json(self, **json_kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        import json

        return json.dumps(self.to_dict(), **json_kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteResult":
        """Rebuild a result written by :meth:`to_dict`."""
        return cls(
            table=SpeedupTable.from_dict(data["table"]),
            errors=[CellError(**e) for e in data["errors"]],
            metrics={
                stage: StageMetrics.from_dict(m)
                for stage, m in data["metrics"].items()
            },
            wall_seconds=float(data["wall_seconds"]),
            workers=int(data["workers"]),
        )


# ---------------------------------------------------------------------------
# Worker-side tasks (module-level and picklable)
# ---------------------------------------------------------------------------

def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _uses_mix(system: SystemConfig) -> bool:
    """Whether a system's cells consume the suite-wide mix profile."""
    return system.policy == "bsm" and not system.sdam


@dataclass(frozen=True)
class _ProfileTask:
    key: str
    params: MachineParams
    workload: Workload
    input_seed: int
    cache_dir: str | None


@dataclass(frozen=True)
class _CellTask:
    index: int
    params: MachineParams
    workload: Workload
    profile_seed: int
    eval_seed: int
    result_key: str
    selection_key: str | None = None
    profile: WorkloadProfile | None = None
    selection: MappingSelection | None = None
    mix_profile: WorkloadProfile | None = None
    cache_dir: str | None = None


@dataclass
class _CellOutcome:
    index: int
    result: dict | None = None
    timings: dict[str, float] = field(default_factory=dict)
    error: tuple[str, str] | None = None  # (stage, message)


def _run_profile_task(
    task: _ProfileTask,
) -> tuple[WorkloadProfile | None, str | None]:
    """Worker entry: compute and publish one profiling stage.

    Returns ``(profile, None)``, or ``(None, message)`` if profiling
    raised.
    """
    try:
        profile = profile_stage(task.params, task.workload, task.input_seed)
    except Exception as exc:  # noqa: BLE001 — recorded on dependent cells
        return None, _describe(exc)
    if task.cache_dir:
        StageStore(task.cache_dir).store("profile", task.key, profile)
    return profile, None


def _run_cell_task(task: _CellTask) -> _CellOutcome:
    """Worker entry: selection (if needed) + evaluation for one cell."""
    store = StageStore(task.cache_dir) if task.cache_dir else None
    outcome = _CellOutcome(task.index)
    stage = "selection"
    try:
        selection = task.selection
        if task.params.system.sdam and selection is None:
            start = time.perf_counter()
            selection = selection_stage(task.params, task.profile)
            outcome.timings["selection"] = time.perf_counter() - start
            if store is not None:
                store.store("selection", task.selection_key, selection)
        stage = "evaluate"
        start = time.perf_counter()
        result = evaluate_stage(
            task.params,
            task.workload,
            task.profile_seed,
            task.eval_seed,
            mix_profile=task.mix_profile,
            profile=task.profile,
            selection=selection,
        )
        outcome.timings["evaluate"] = time.perf_counter() - start
        outcome.result = result.to_dict()
        if store is not None:
            store.store("result", task.result_key, outcome.result)
    except Exception as exc:  # noqa: BLE001 — isolate the failing cell
        outcome.error = (stage, _describe(exc))
    return outcome


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ExperimentRunner:
    """Plans, caches and executes (workload x system) sweeps.

    ``max_workers <= 1`` runs every stage in-process (still cached);
    larger values map independent stages over worker processes.
    ``cache_dir`` persists stage outputs across runners and processes.
    """

    def __init__(self, cache_dir: str | None = None, max_workers: int = 0):
        self.max_workers = int(max_workers or 0)
        if self.max_workers < 0:
            raise ConfigError(
                f"worker count must be >= 0, got {self.max_workers}"
            )
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.store = StageStore(self.cache_dir) if self.cache_dir else None
        # kind -> key -> stage output, for the runner's lifetime.
        self._memo: dict[str, dict] = {
            kind: {} for kind in ("profile", "selection", "result")
        }

    # -- cached stage lookups ------------------------------------------------
    def _cached(self, kind: str, key: str):
        """A stage output from memory, else from the store, else None."""
        memo = self._memo[kind]
        if key not in memo and self.store is not None:
            value = self.store.load(kind, key)
            if value is not None:
                memo[key] = value
        return memo.get(key)

    def _map(self, fn, tasks: list) -> list:
        """``fn`` over ``tasks`` in order: in-process or over a pool."""
        if self.max_workers <= 1 or not tasks:
            return [fn(task) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(tasks))
        ) as pool:
            return list(pool.map(fn, tasks))

    # -- profiling phase -----------------------------------------------------
    def _ensure_profiles(
        self,
        wanted: dict[str, Workload],
        params: MachineParams,
        input_seed: int,
        metrics: StageMetrics,
    ) -> tuple[dict[str, WorkloadProfile], dict[str, str]]:
        """Every wanted profile, plus the message of each that failed."""
        profiles: dict[str, WorkloadProfile] = {}
        failures: dict[str, str] = {}
        missing: list[_ProfileTask] = []
        for pkey, workload in wanted.items():
            cached = self._cached("profile", pkey)
            if cached is not None:
                profiles[pkey] = cached
                metrics.cache_hits += 1
            else:
                metrics.cache_misses += 1
                missing.append(
                    _ProfileTask(
                        pkey, params, workload, input_seed, self.cache_dir
                    )
                )
        if not missing:
            return profiles, failures
        start = time.perf_counter()
        outcomes = self._map(_run_profile_task, missing)
        metrics.wall_seconds += time.perf_counter() - start
        for task, (profile, error) in zip(missing, outcomes):
            if profile is None:
                failures[task.key] = error
            else:
                profiles[task.key] = self._memo["profile"][task.key] = profile
        return profiles, failures

    # -- the sweep -----------------------------------------------------------
    def run_suite(
        self,
        workloads: list[Workload],
        systems: list[SystemConfig] | None = None,
        profile_seed: int = 0,
        eval_seed: int = 1,
        **machine_kwargs,
    ) -> SuiteResult:
        """Run every workload under every system, cached and parallel.

        Speedups are reported against the first system in ``systems``
        (``BS+DM`` in the standard set), matching
        :func:`repro.system.experiment.run_suite`.
        """
        sweep_start = time.perf_counter()
        systems = systems or standard_systems()
        if not workloads:
            raise ConfigError("no workloads given")
        if not systems:
            raise ConfigError("no systems given")
        base = MachineParams.from_kwargs(systems[0], **machine_kwargs)
        metrics = {stage: StageMetrics(stage) for stage in STAGES}
        profile_keys = {
            workload.name: profile_cache_key(base, workload, profile_seed)
            for workload in workloads
        }
        mix_key = stable_hash(
            "mix", [profile_keys[w.name] for w in workloads]
        )

        # Plan: resolve every cell to a cached result or a pending cell.
        cells: list[tuple[Workload, SystemConfig, MachineParams, str]] = []
        results: dict[int, dict] = {}
        pending: list[int] = []
        for index, (workload, system) in enumerate(
            (w, s) for w in workloads for s in systems
        ):
            params = base.with_system(system)
            result_key = evaluate_cache_key(
                params,
                workload,
                profile_seed,
                eval_seed,
                mix_key if _uses_mix(system) else None,
            )
            cells.append((workload, system, params, result_key))
            cached = self._cached("result", result_key)
            if cached is not None:
                metrics["evaluate"].cache_hits += 1
                results[index] = cached
            else:
                pending.append(index)

        # Profile: one stage per workload, shared by every system.
        needs_mix = any(_uses_mix(cells[index][1]) for index in pending)
        wanted: dict[str, Workload] = {}
        if needs_mix:
            # The suite mix folds in every workload's profile.
            for workload in workloads:
                wanted[profile_keys[workload.name]] = workload
        for index in pending:
            workload, system, params, _key = cells[index]
            pkey = profile_keys[workload.name]
            if system.sdam and (
                self._cached("selection", selection_cache_key(params, pkey))
                is None
            ):
                wanted[pkey] = workload
        profiles, failures = self._ensure_profiles(
            wanted, base, profile_seed, metrics["profile"]
        )

        mix_profile: WorkloadProfile | None = None
        mix_error: str | None = None
        if needs_mix:
            failed = [
                w.name for w in workloads if profile_keys[w.name] in failures
            ]
            if failed:
                mix_error = (
                    f"suite mix: profile of {failed[0]} failed: "
                    f"{failures[profile_keys[failed[0]]]}"
                )
            else:
                start = time.perf_counter()
                mix_profile = build_mix_profile(
                    [profiles[profile_keys[w.name]] for w in workloads]
                )
                metrics["mix"].wall_seconds += time.perf_counter() - start
                metrics["mix"].cache_misses += 1

        # Evaluate: run every pending cell whose inputs exist.
        errors: dict[int, CellError] = {}
        tasks: list[_CellTask] = []
        for index in pending:
            workload, system, params, result_key = cells[index]
            pkey = profile_keys[workload.name]
            skey = selection = None
            if system.sdam:
                skey = selection_cache_key(params, pkey)
                selection = self._cached("selection", skey)
                if selection is None:
                    metrics["selection"].cache_misses += 1
                else:
                    metrics["selection"].cache_hits += 1
            if system.sdam and selection is None:
                failure = failures.get(pkey)
            elif _uses_mix(system):
                failure = mix_error
            else:
                failure = None
            if failure is not None:
                errors[index] = CellError(
                    workload.name, system.key, "profile", failure
                )
                continue
            tasks.append(
                _CellTask(
                    index=index,
                    params=params,
                    workload=workload,
                    profile_seed=profile_seed,
                    eval_seed=eval_seed,
                    result_key=result_key,
                    selection_key=skey,
                    profile=profiles.get(pkey),
                    selection=selection,
                    mix_profile=mix_profile if _uses_mix(system) else None,
                    cache_dir=self.cache_dir,
                )
            )

        for outcome in self._map(_run_cell_task, tasks):
            workload, system, _params, result_key = cells[outcome.index]
            for stage, seconds in outcome.timings.items():
                metrics[stage].wall_seconds += seconds
            if outcome.error is not None:
                errors[outcome.index] = CellError(
                    workload.name, system.key, *outcome.error
                )
                continue
            metrics["evaluate"].cache_misses += 1
            metrics["evaluate"].bytes_simulated += int(
                outcome.result["stats"]["bytes_moved"]
            )
            results[outcome.index] = outcome.result
            self._memo["result"][result_key] = outcome.result

        # Assemble in deterministic cell order.
        table = SpeedupTable(baseline_label=systems[0].label)
        for index in sorted(results):
            table.add(MachineResult.from_dict(results[index]))
        return SuiteResult(
            table=table,
            errors=[errors[index] for index in sorted(errors)],
            metrics=metrics,
            wall_seconds=time.perf_counter() - sweep_start,
            workers=self.max_workers,
        )

    # -- single cells --------------------------------------------------------
    def run_one(
        self,
        workload: Workload,
        system: SystemConfig,
        profile_seed: int = 0,
        eval_seed: int = 1,
        **machine_kwargs,
    ) -> MachineResult:
        """One (workload, system) cell, cached; raises on failure.

        Unlike :meth:`run_suite`, a ``BS+BSM`` cell run alone uses the
        workload's *own* profile as the mix (exactly what
        ``Machine.run`` does without a suite context).
        """
        params = MachineParams.from_kwargs(system, **machine_kwargs)
        pkey = profile_cache_key(params, workload, profile_seed)
        result_key = evaluate_cache_key(
            params,
            workload,
            profile_seed,
            eval_seed,
            stable_hash("self-mix", pkey) if _uses_mix(system) else None,
        )
        cached = self._cached("result", result_key)
        if cached is not None:
            return MachineResult.from_dict(cached)
        profile = selection = skey = None
        if system.needs_profiling:
            profile = self._cached("profile", pkey)
            if profile is None:
                profile, message = _run_profile_task(
                    _ProfileTask(
                        pkey, params, workload, profile_seed, self.cache_dir
                    )
                )
                if message is not None:
                    raise ConfigError(
                        f"{workload.name} on {system.key} failed in "
                        f"profile: {message}"
                    )
                self._memo["profile"][pkey] = profile
            if system.sdam:
                skey = selection_cache_key(params, pkey)
                selection = self._cached("selection", skey)
        outcome = _run_cell_task(
            _CellTask(
                index=0,
                params=params,
                workload=workload,
                profile_seed=profile_seed,
                eval_seed=eval_seed,
                result_key=result_key,
                selection_key=skey,
                profile=profile,
                selection=selection,
                mix_profile=profile if _uses_mix(system) else None,
                cache_dir=self.cache_dir,
            )
        )
        if outcome.error is not None:
            stage, message = outcome.error
            raise ConfigError(
                f"{workload.name} on {system.key} failed in {stage}: "
                f"{message}"
            )
        self._memo["result"][result_key] = outcome.result
        return MachineResult.from_dict(outcome.result)
