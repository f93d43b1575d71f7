"""Parallel, cached experiment execution engine.

:class:`ExperimentRunner` turns a (workloads x systems) sweep into the
stage DAG of :mod:`repro.system.stages`, memoises every stage output —
in memory for the lifetime of the runner and on disk through a
:class:`~repro.system.tracefile.StageStore` — and fans the remaining
independent cells out over a ``ProcessPoolExecutor``:

1. *Plan*: compute every cell's result key; cells whose result is
   already cached are done without touching a worker.
2. *Profile*: the unique profiling stages the remaining cells need
   (one per workload, shared by every system) run first, in parallel.
3. *Evaluate*: the remaining cells run in parallel, each worker
   computing (or loading) its mapping selection and simulating the
   memory system.  Results come back as serialised dicts, so parallel,
   serial and cached cells are exactly interchangeable.

Results are returned in deterministic (workload-major) order whatever
the completion order; a failing or timed-out cell degrades to a
recorded :class:`CellError` instead of killing the sweep.

The engine is *fault-tolerant* (see DESIGN.md, "Failure model"):
transient cell failures are retried under a :class:`RetryPolicy`, a
broken process pool degrades the rest of the sweep to serial
execution instead of aborting it, every sweep writes a per-cell
outcome manifest so ``run_suite(..., resume=True)`` re-runs only
failed or missing cells, and a :class:`~repro.faults.FaultPlan` can
inject failures at named sites to test all of the above.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.keys import stable_hash
from repro.core.selection import MappingSelection
from repro.errors import ConfigError, RetryExhaustedError
from repro.faults import FaultPlan
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
    sweep_cache_key,
)
from repro.system.tracefile import StageStore
from repro.workloads.base import Workload

__all__ = [
    "CellError",
    "ExperimentRunner",
    "RetryPolicy",
    "StageMetrics",
    "SuiteResult",
]

STAGES = ("profile", "mix", "selection", "evaluate")

MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class RetryPolicy:
    """When and how often to re-execute a failed cell.

    A cell whose error class is in ``retry_on`` is re-submitted with
    exponential backoff until it succeeds or ``max_attempts`` is
    spent; other errors are recorded immediately.  The default class
    set covers crashes and I/O flakes — failures that plausibly pass
    on a second try — and excludes deterministic ones (a workload
    whose trace generator raises will raise again).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    retry_on: tuple[str, ...] = (
        "WorkerCrashError",
        "BrokenProcessPool",
        "OSError",
        "IOError",
        "EOFError",
        "ConnectionError",
        "ConnectionResetError",
    )

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Single-attempt policy: record every failure immediately."""
        return cls(max_attempts=1)

    def delay(self, attempt: int) -> float:
        """Backoff before re-running a cell that failed ``attempt``."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)

    def should_retry(self, error_type: str | None, attempt: int) -> bool:
        """Whether a failure of this class at this attempt is retried."""
        return attempt < self.max_attempts and error_type in self.retry_on


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
    """One failed cell: where it failed and why; the sweep continued.

    ``error_type`` is the exception class name (what retry policies
    classify on) and ``attempts`` how many executions were spent
    before the failure was recorded.
    """

    workload: str
    system: str
    stage: str
    message: str
    error_type: str = ""
    attempts: int = 1

    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return {
            "workload": self.workload,
            "system": self.system,
            "stage": self.stage,
            "message": self.message,
            "error_type": self.error_type,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellError":
        """Rebuild an error written by :meth:`to_dict`.

        Tolerant of manifests from other engine versions: missing
        keys fall back to defaults and extra keys are ignored.
        """
        return cls(
            workload=str(data.get("workload", "?")),
            system=str(data.get("system", "?")),
            stage=str(data.get("stage", "evaluate")),
            message=str(data.get("message", "")),
            error_type=str(data.get("error_type", "")),
            attempts=int(data.get("attempts", 1)),
        )


@dataclass
class SuiteResult:
    """A sweep's results plus per-stage structured metrics."""

    table: SpeedupTable
    errors: list[CellError] = field(default_factory=list)
    metrics: dict[str, StageMetrics] = field(default_factory=dict)
    wall_seconds: float = 0.0
    workers: int = 0
    degraded: bool = False
    resumed: bool = False

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
            "degraded": self.degraded,
            "resumed": self.resumed,
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
            errors=[CellError.from_dict(e) for e in data["errors"]],
            metrics={
                stage: StageMetrics.from_dict(m)
                for stage, m in data["metrics"].items()
            },
            wall_seconds=float(data["wall_seconds"]),
            workers=int(data["workers"]),
            degraded=bool(data.get("degraded", False)),
            resumed=bool(data.get("resumed", False)),
        )


# ---------------------------------------------------------------------------
# Worker-side tasks (module-level and picklable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ProfileTask:
    key: str
    params: MachineParams
    workload: Workload
    input_seed: int
    cache_dir: str | None
    attempt: int = 1
    faults: FaultPlan | None = None


@dataclass(frozen=True)
class _CellTask:
    index: int
    params: MachineParams
    workload: Workload
    profile_seed: int
    eval_seed: int
    result_key: str
    selection_key: str | None = None
    profile_key: str | None = None
    profile: WorkloadProfile | None = None
    selection: MappingSelection | None = None
    mix_profile: WorkloadProfile | None = None
    cache_dir: str | None = None
    attempt: int = 1
    faults: FaultPlan | None = None

    @property
    def token(self) -> str:
        """The fault-site token identifying this cell."""
        return f"{self.workload.name}:{self.params.system.key}"


@dataclass
class _CellOutcome:
    index: int
    result: dict | None
    timings: dict[str, float]
    error_stage: str | None = None
    error: str | None = None
    error_type: str | None = None
    attempt: int = 1


def _run_profile_task(
    task: _ProfileTask, in_worker: bool = False
) -> tuple[str, WorkloadProfile, float]:
    """Worker entry: compute (or load) one profiling stage."""
    store = (
        StageStore(task.cache_dir, faults=task.faults)
        if task.cache_dir
        else None
    )
    if store is not None:
        cached = store.load_profile(task.key)
        if cached is not None:
            return task.key, cached, 0.0
    if task.faults is not None:
        task.faults.inject(
            "worker.profile",
            task.workload.name,
            attempt=task.attempt,
            allow_exit=in_worker,
        )
    start = time.perf_counter()
    profile = profile_stage(task.params, task.workload, task.input_seed)
    elapsed = time.perf_counter() - start
    if store is not None:
        store.store_profile(task.key, profile)
    return task.key, profile, elapsed


def _run_cell_task(task: _CellTask, in_worker: bool = False) -> _CellOutcome:
    """Worker entry: selection (if needed) + evaluation for one cell."""
    store = (
        StageStore(task.cache_dir, faults=task.faults)
        if task.cache_dir
        else None
    )
    timings: dict[str, float] = {}
    stage = "evaluate"

    def fail(exc: Exception) -> _CellOutcome:
        return _CellOutcome(
            index=task.index,
            result=None,
            timings=timings,
            error_stage=stage,
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            attempt=task.attempt,
        )

    def inject(site: str) -> None:
        if task.faults is not None:
            task.faults.inject(
                site, task.token, attempt=task.attempt, allow_exit=in_worker
            )

    try:
        profile = task.profile
        selection = task.selection
        if task.params.system.sdam and selection is None:
            stage = "selection"
            if store is not None and task.selection_key:
                selection = store.load_selection(task.selection_key)
            if selection is None:
                if profile is None:
                    # Planner normally embeds the profile; recompute as
                    # a fallback so a lone task stays self-contained.
                    stage = "profile"
                    inject("worker.profile")
                    start = time.perf_counter()
                    profile = profile_stage(
                        task.params, task.workload, task.profile_seed
                    )
                    timings["profile"] = time.perf_counter() - start
                    if store is not None and task.profile_key:
                        store.store_profile(task.profile_key, profile)
                    stage = "selection"
                inject("worker.selection")
                start = time.perf_counter()
                selection = selection_stage(task.params, profile)
                timings["selection"] = time.perf_counter() - start
                if store is not None and task.selection_key:
                    store.store_selection(task.selection_key, selection)
        stage = "evaluate"
        inject("worker.evaluate")
        start = time.perf_counter()
        result = evaluate_stage(
            task.params,
            task.workload,
            task.profile_seed,
            task.eval_seed,
            mix_profile=task.mix_profile,
            profile=profile,
            selection=selection,
        )
        timings["evaluate"] = time.perf_counter() - start
        result_dict = result.to_dict()
        if store is not None:
            store.store_result(task.result_key, result_dict)
        return _CellOutcome(
            index=task.index,
            result=result_dict,
            timings=timings,
            attempt=task.attempt,
        )
    except Exception as exc:  # noqa: BLE001 — isolate the failing cell
        return fail(exc)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ExperimentRunner:
    """Plans, caches and executes (workload x system) sweeps.

    ``max_workers <= 1`` runs every stage in-process (still cached);
    larger values fan independent stages out over worker processes.
    ``cell_timeout`` bounds the wait for each parallel cell; a cell
    that exceeds it is recorded as a :class:`CellError`.  Timeouts
    require ``max_workers >= 2`` — the serial path cannot interrupt a
    running stage.

    ``retry_policy`` governs re-execution of transiently failed cells
    (crashes, I/O flakes); a broken process pool degrades the rest of
    the sweep to serial execution instead of aborting.  ``faults``
    optionally injects failures from a
    :class:`~repro.faults.FaultPlan` (defaults to the
    ``$REPRO_FAULT_PLAN`` environment hook); when a cache directory
    exists, the plan's firing ledger is kept inside it so fault
    budgets hold across worker processes and resumed sweeps.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        max_workers: int = 0,
        cell_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ):
        self.cache_dir = str(cache_dir) if cache_dir else None
        if faults is None:
            faults = FaultPlan.from_env()
        if (
            faults is not None
            and faults.ledger_dir is None
            and self.cache_dir
        ):
            faults = faults.with_ledger(
                Path(self.cache_dir) / "faults-ledger"
            )
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.store = (
            StageStore(self.cache_dir, faults=faults)
            if self.cache_dir
            else None
        )
        self.max_workers = int(max_workers or 0)
        self.cell_timeout = cell_timeout
        self._profiles: dict[str, WorkloadProfile] = {}
        self._selections: dict[str, MappingSelection] = {}
        self._results: dict[str, dict] = {}
        self._degraded = False

    # -- cached stage lookups ------------------------------------------------
    def _cached_profile(self, key: str) -> WorkloadProfile | None:
        profile = self._profiles.get(key)
        if profile is None and self.store is not None:
            profile = self.store.load_profile(key)
            if profile is not None:
                self._profiles[key] = profile
        return profile

    def _cached_selection(self, key: str) -> MappingSelection | None:
        selection = self._selections.get(key)
        if selection is None and self.store is not None:
            selection = self.store.load_selection(key)
            if selection is not None:
                self._selections[key] = selection
        return selection

    def _cached_result(self, key: str) -> dict | None:
        result = self._results.get(key)
        if result is None and self.store is not None:
            result = self.store.load_result(key)
            if result is not None:
                self._results[key] = result
        return result

    # -- profiling phase -----------------------------------------------------
    def _ensure_profiles(
        self,
        needed: list[tuple[str, Workload]],
        params: MachineParams,
        input_seed: int,
        metrics: StageMetrics,
    ) -> dict[str, WorkloadProfile]:
        """Compute (in parallel) every missing profiling stage."""
        profiles: dict[str, WorkloadProfile] = {}
        missing: list[_ProfileTask] = []
        for key, workload in needed:
            cached = self._cached_profile(key)
            if cached is not None:
                profiles[key] = cached
                metrics.cache_hits += 1
            else:
                metrics.cache_misses += 1
                missing.append(
                    _ProfileTask(
                        key=key,
                        params=params,
                        workload=workload,
                        input_seed=input_seed,
                        cache_dir=self.cache_dir,
                        faults=self.faults,
                    )
                )
        if not missing:
            return profiles
        start = time.perf_counter()
        if self.max_workers > 1:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.max_workers, len(missing))
                ) as pool:
                    outcomes = list(
                        pool.map(_run_profile_task, missing, [True] * len(missing))
                    )
            except Exception as exc:  # noqa: BLE001 — degrade, don't abort
                # A crashed worker (or injected fault) lost the batch;
                # profiles the workers did publish reload from the
                # store, the rest recompute serially as a fresh attempt.
                if isinstance(exc, BrokenProcessPool):
                    self._degraded = True
                outcomes = [
                    _run_profile_task(replace(task, attempt=task.attempt + 1))
                    for task in missing
                ]
        else:
            outcomes = [_run_profile_task(task) for task in missing]
        metrics.wall_seconds += time.perf_counter() - start
        for key, profile, _elapsed in outcomes:
            profiles[key] = profile
            self._profiles[key] = profile
        return profiles

    # -- the sweep -----------------------------------------------------------
    def run_suite(
        self,
        workloads: list[Workload],
        systems: list[SystemConfig] | None = None,
        profile_seed: int = 0,
        eval_seed: int = 1,
        resume: bool = False,
        **machine_kwargs,
    ) -> SuiteResult:
        """Run every workload under every system, cached and parallel.

        Speedups are reported against the first system in ``systems``
        (``BS+DM`` in the standard set), matching
        :func:`repro.system.experiment.run_suite`.

        With a cache directory the sweep maintains a *manifest* — a
        per-cell outcome record updated as results land — so an
        interrupted or partially failed sweep can be finished with
        ``resume=True``: healthy cells are served from the stage
        cache (zero recomputation) and only failed or missing cells
        re-run.
        """
        sweep_start = time.perf_counter()
        self._degraded = False
        systems = systems or standard_systems()
        if not workloads:
            raise ConfigError("no workloads given")
        if not systems:
            raise ConfigError("no systems given")
        base = MachineParams.from_kwargs(systems[0], **machine_kwargs)
        metrics = {stage: StageMetrics(stage) for stage in STAGES}

        # Keys shared across the plan.
        profile_keys = {
            workload.name: profile_cache_key(base, workload, profile_seed)
            for workload in workloads
        }
        mix_needed_by = [
            system
            for system in systems
            if system.policy == "bsm" and not system.sdam
        ]
        mix_key = stable_hash(
            "mix", [profile_keys[w.name] for w in workloads]
        )

        # Plan: resolve every cell to a cached result or a task.
        cells: list[tuple[int, Workload, SystemConfig, MachineParams, str]] = []
        results: dict[int, dict] = {}
        errors: list[CellError] = []
        pending: list[tuple[int, Workload, SystemConfig, MachineParams, str]] = []
        for index, (workload, system) in enumerate(
            (w, s) for w in workloads for s in systems
        ):
            params = base.with_system(system)
            cell_mix = (
                mix_key if system.policy == "bsm" and not system.sdam else None
            )
            result_key = evaluate_cache_key(
                params, workload, profile_seed, eval_seed, cell_mix
            )
            cells.append((index, workload, system, params, result_key))
            cached = self._cached_result(result_key)
            if cached is not None:
                metrics["evaluate"].cache_hits += 1
                results[index] = cached
            else:
                pending.append((index, workload, system, params, result_key))

        # Manifest: record the plan (and each outcome, incrementally)
        # so an interrupted sweep can be resumed from what finished.
        sweep_key = sweep_cache_key(
            base, workloads, systems, profile_seed, eval_seed
        )
        manifest: dict | None = None
        resumed = False
        if self.store is not None:
            if resume:
                resumed = self.store.load_manifest(sweep_key) is not None
            manifest = {
                "format": MANIFEST_FORMAT,
                "sweep": sweep_key,
                "workloads": [w.name for w in workloads],
                "systems": [s.key for s in systems],
                "resumed": resumed,
                "completed": False,
                "cells": {
                    str(index): {
                        "workload": workload.name,
                        "system": system.key,
                        "result_key": key,
                        "status": "ok" if index in results else "pending",
                    }
                    for index, workload, system, _params, key in cells
                },
            }
            self.store.store_manifest(sweep_key, manifest)

        # Profile: one stage per workload, shared by every system.
        profiles_wanted: dict[str, Workload] = {}
        if mix_needed_by and pending:
            # The suite mix folds in every workload's profile.
            for workload in workloads:
                profiles_wanted[profile_keys[workload.name]] = workload
        for _index, workload, system, params, _key in pending:
            if not system.sdam:
                continue
            pkey = profile_keys[workload.name]
            skey = selection_cache_key(params, pkey)
            if self._cached_selection(skey) is None:
                profiles_wanted[pkey] = workload
        profiles = self._ensure_profiles(
            list(profiles_wanted.items()), base, profile_seed, metrics["profile"]
        )

        mix_profile: WorkloadProfile | None = None
        if mix_needed_by and pending:
            start = time.perf_counter()
            mix_profile = build_mix_profile(
                [profiles[profile_keys[w.name]] for w in workloads]
            )
            metrics["mix"].wall_seconds += time.perf_counter() - start
            metrics["mix"].cache_misses += 1

        # Evaluate: fan the remaining cells out.
        tasks: list[_CellTask] = []
        for index, workload, system, params, result_key in pending:
            pkey = profile_keys[workload.name]
            skey = selection_cache_key(params, pkey) if system.sdam else None
            selection = self._cached_selection(skey) if skey else None
            if skey and selection is not None:
                metrics["selection"].cache_hits += 1
            elif skey:
                metrics["selection"].cache_misses += 1
            needs_mix = system.policy == "bsm" and not system.sdam
            tasks.append(
                _CellTask(
                    index=index,
                    params=params,
                    workload=workload,
                    profile_seed=profile_seed,
                    eval_seed=eval_seed,
                    result_key=result_key,
                    selection_key=skey,
                    profile_key=pkey,
                    profile=profiles.get(pkey),
                    selection=selection,
                    mix_profile=mix_profile if needs_mix else None,
                    cache_dir=self.cache_dir,
                    faults=self.faults,
                )
            )

        def record_outcome(outcome: _CellOutcome) -> None:
            if manifest is None:
                return
            cell = manifest["cells"][str(outcome.index)]
            if outcome.error is None:
                cell["status"] = "ok"
                cell.pop("error", None)
            else:
                cell["status"] = "error"
                cell["error"] = {
                    "stage": outcome.error_stage or "evaluate",
                    "message": outcome.error,
                    "error_type": outcome.error_type or "",
                    "attempts": outcome.attempt,
                }
            self.store.store_manifest(sweep_key, manifest)

        outcomes = self._execute_cells(tasks, on_outcome=record_outcome)

        # Assemble in deterministic cell order.
        by_index = {
            index: (workload, system)
            for index, workload, system, _params, _key in cells
        }
        keys_by_index = {index: key for index, _w, _s, _p, key in cells}
        for outcome in outcomes:
            workload, system = by_index[outcome.index]
            for stage, seconds in outcome.timings.items():
                metrics[stage].wall_seconds += seconds
            if outcome.error is not None:
                errors.append(
                    CellError(
                        workload=workload.name,
                        system=system.key,
                        stage=outcome.error_stage or "evaluate",
                        message=outcome.error,
                        error_type=outcome.error_type or "",
                        attempts=outcome.attempt,
                    )
                )
                continue
            metrics["evaluate"].cache_misses += 1
            metrics["evaluate"].bytes_simulated += int(
                outcome.result["stats"]["bytes_moved"]
            )
            results[outcome.index] = outcome.result
            self._results[keys_by_index[outcome.index]] = outcome.result

        table = SpeedupTable(baseline_label=systems[0].label)
        for index, _workload, _system, _params, _key in cells:
            if index in results:
                table.add(MachineResult.from_dict(results[index]))
        suite = SuiteResult(
            table=table,
            errors=errors,
            metrics=metrics,
            wall_seconds=time.perf_counter() - sweep_start,
            workers=self.max_workers,
            degraded=self._degraded,
            resumed=resumed,
        )
        if manifest is not None:
            manifest["completed"] = not errors
            self.store.store_manifest(sweep_key, manifest)
        return suite

    def _execute_cells(
        self, tasks: list[_CellTask], on_outcome=None
    ) -> list[_CellOutcome]:
        """Run cell tasks with retries, degrading serially if needed.

        Each round executes the outstanding tasks (over the pool, or
        in-process once the pool has broken or ``max_workers <= 1``);
        failures the :class:`RetryPolicy` classifies as transient are
        re-submitted with backoff as the next round.  ``on_outcome``
        fires once per cell when its outcome becomes final.
        """
        if not tasks:
            return []
        final: dict[int, _CellOutcome] = {}
        serial = self.max_workers <= 1
        batch = list(tasks)
        while batch:
            if serial:
                raw = [_run_cell_task(task) for task in batch]
            else:
                raw, pool_broken = self._run_pooled(batch)
                if pool_broken:
                    # Graceful degradation: finish the sweep (and any
                    # retries) in-process rather than aborting it.
                    self._degraded = True
                    serial = True
            by_index = {task.index: task for task in batch}
            retries: list[_CellTask] = []
            for outcome in raw:
                task = by_index[outcome.index]
                if outcome.error is not None and self.retry_policy.should_retry(
                    outcome.error_type, task.attempt
                ):
                    retries.append(replace(task, attempt=task.attempt + 1))
                else:
                    final[outcome.index] = outcome
                    if on_outcome is not None:
                        on_outcome(outcome)
            if retries:
                time.sleep(
                    self.retry_policy.delay(
                        min(task.attempt for task in retries) - 1
                    )
                )
            batch = retries
        return [final[index] for index in sorted(final)]

    def _run_pooled(
        self, tasks: list[_CellTask]
    ) -> tuple[list[_CellOutcome], bool]:
        """One round of tasks over a process pool.

        Returns the outcomes plus whether the pool broke.  A broken
        pool marks every unfinished cell as a crash (retryable, so
        the serial fallback re-runs them); a timeout marks every
        still-running cell as timed out and abandons the pool.
        """
        outcomes: list[_CellOutcome] = []
        pool = ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(tasks))
        )
        timed_out = False
        pool_broken = False
        try:
            futures = {
                pool.submit(_run_cell_task, task, True): task
                for task in tasks
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining,
                    timeout=self.cell_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # No cell finished within the per-cell budget: the
                    # in-flight cells are recorded as timed out and the
                    # pool is abandoned without waiting on them.
                    timed_out = True
                    for future in remaining:
                        task = futures[future]
                        future.cancel()
                        outcomes.append(
                            _CellOutcome(
                                index=task.index,
                                result=None,
                                timings={},
                                error_stage="evaluate",
                                error=(
                                    "timeout: no progress within "
                                    f"{self.cell_timeout:.1f}s"
                                ),
                                error_type="CellTimeout",
                                attempt=task.attempt,
                            )
                        )
                    break
                for future in done:
                    task = futures[future]
                    try:
                        outcomes.append(future.result())
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        outcomes.append(
                            _CellOutcome(
                                index=task.index,
                                result=None,
                                timings={},
                                error_stage="evaluate",
                                error=f"worker crashed: {exc}",
                                error_type="WorkerCrashError",
                                attempt=task.attempt,
                            )
                        )
                    except Exception as exc:  # pool/pickle failures
                        outcomes.append(
                            _CellOutcome(
                                index=task.index,
                                result=None,
                                timings={},
                                error_stage="evaluate",
                                error=f"{type(exc).__name__}: {exc}",
                                error_type=type(exc).__name__,
                                attempt=task.attempt,
                            )
                        )
                if pool_broken:
                    # The pool takes every queued future down with it.
                    for future in remaining:
                        task = futures[future]
                        future.cancel()
                        outcomes.append(
                            _CellOutcome(
                                index=task.index,
                                result=None,
                                timings={},
                                error_stage="evaluate",
                                error="worker pool broke before the cell ran",
                                error_type="WorkerCrashError",
                                attempt=task.attempt,
                            )
                        )
                    break
        finally:
            abandoned = timed_out or pool_broken
            pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes, pool_broken

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
            stable_hash("self-mix", pkey)
            if system.policy == "bsm" and not system.sdam
            else None,
        )
        cached = self._cached_result(result_key)
        if cached is not None:
            return MachineResult.from_dict(cached)
        profile = None
        selection = None
        skey = None
        if system.needs_profiling:
            profile = self._cached_profile(pkey)
            if profile is None:
                profile = profile_stage(params, workload, profile_seed)
                self._profiles[pkey] = profile
                if self.store is not None:
                    self.store.store_profile(pkey, profile)
            if system.sdam:
                skey = selection_cache_key(params, pkey)
                selection = self._cached_selection(skey)
        task = _CellTask(
            index=0,
            params=params,
            workload=workload,
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            result_key=result_key,
            selection_key=skey,
            profile_key=pkey,
            profile=profile,
            selection=selection,
            mix_profile=profile
            if system.policy == "bsm" and not system.sdam
            else None,
            cache_dir=self.cache_dir,
            faults=self.faults,
        )
        attempt = 1
        while True:
            outcome = _run_cell_task(replace(task, attempt=attempt))
            if outcome.error is None:
                break
            if self.retry_policy.should_retry(outcome.error_type, attempt):
                time.sleep(self.retry_policy.delay(attempt))
                attempt += 1
                continue
            if (
                outcome.error_type in self.retry_policy.retry_on
                and attempt >= self.retry_policy.max_attempts
            ):
                raise RetryExhaustedError(
                    f"{workload.name} on {system.key} still failing in "
                    f"{outcome.error_stage} after {attempt} attempt(s): "
                    f"{outcome.error}"
                )
            raise ConfigError(
                f"{workload.name} on {system.key} failed in "
                f"{outcome.error_stage}: {outcome.error}"
            )
        self._results[result_key] = outcome.result
        return MachineResult.from_dict(outcome.result)
