"""Parallel, cached experiment execution engine.

:class:`ExperimentRunner` turns a (workloads x systems) sweep into a
small DAG of stages, each a call on a
:class:`~repro.system.machine.Machine` built from the caller's keyword
arguments:

.. code-block:: text

    workload ──> profile ──┬──> selection ──> run ──> result
                           └──> suite mix ─────┘

It memoises every stage output — in memory for the lifetime of the
runner and on disk through a
:class:`~repro.system.tracefile.StageStore` — and, given more than one
worker, maps the remaining independent stages over a
``ProcessPoolExecutor``:

1. *Plan*: compute every cell's result key; cells whose result is
   already cached are done without touching a worker.
2. *Profile*: the unique ``Machine.profile`` calls the remaining cells
   need (one per workload, shared by every system) run first.
3. *Evaluate*: the remaining cells run, each computing (or receiving)
   its ``Machine.select`` output and calling ``Machine.run``.  Results
   come back as serialised dicts, so parallel, serial and cached cells
   are exactly interchangeable.

A stage key hashes the workload spec, the seeds, every ``Machine``
argument (bound against ``Machine``'s own signature with defaults
applied, so a new argument is keyed without being listed here) and
:func:`source_digest`, so an entry written by other code is never read.

Results are returned in deterministic (workload-major) order.  A stage
that raises is recorded as a :class:`CellError` on every cell that
needs its output, and the sweep continues; a worker process that dies
breaks the pool, and that error propagates out of
:meth:`ExperimentRunner.run_suite`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.keys import stable_hash
from repro.core.selection import MappingSelection
from repro.errors import ConfigError
from repro.ledger import SUM, Ledger, key
from repro.profiling.profiler import WorkloadProfile
from repro.system.config import SystemConfig, standard_systems
from repro.system.experiment import SpeedupTable
from repro.system.machine import Machine, MachineResult
from repro.system.stages import build_mix_profile
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
# Stage keys
# ---------------------------------------------------------------------------

@functools.cache
def source_digest() -> str:
    """sha256 of the ``repro`` package's own ``.py`` sources.

    Computed once per process, on the first key, over every source file
    in sorted relative-path order.  Every stage key includes it, so a
    cached entry is only ever read by the code that wrote it.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(
        root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()
    ):
        digest.update(path.relative_to(root).as_posix().encode() + b"\x00")
        digest.update(path.read_bytes() + b"\x00")
    return digest.hexdigest()


_MACHINE = inspect.signature(Machine)

#: ``Machine`` arguments only the timing backend reads; profiles and
#: selections are shared across them.
_BACKEND_ONLY = ("backend", "backend_options")


def _machine_args(system: SystemConfig, machine_kwargs: dict) -> dict:
    """Every ``Machine`` argument of one cell, defaults applied."""
    try:
        bound = _MACHINE.bind(system, **machine_kwargs)
    except TypeError as exc:
        raise ConfigError(f"Machine: {exc}") from None
    bound.apply_defaults()
    return dict(bound.arguments)


def _stage_key(stage: str, args: dict, *parts, drop=()) -> str:
    """Content hash of a stage: its ``Machine`` arguments (minus
    ``drop``), the extra ``parts`` and the source digest."""
    kept = {name: value for name, value in args.items() if name not in drop}
    return stable_hash(stage, source_digest(), kept, *parts)


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
    args: dict
    workload: Workload
    input_seed: int
    cache_dir: str | None


@dataclass(frozen=True)
class _CellTask:
    index: int
    args: dict
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
    selection: MappingSelection | None = None  # computed by this task
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
        profile = Machine(**task.args).profile(
            task.workload, input_seed=task.input_seed
        )
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
        machine = Machine(**task.args)
        selection = task.selection
        if machine.system.sdam and selection is None:
            start = time.perf_counter()
            selection = outcome.selection = machine.select(task.profile)
            outcome.timings["selection"] = time.perf_counter() - start
            if store is not None:
                store.store("selection", task.selection_key, selection)
        stage = "evaluate"
        start = time.perf_counter()
        result = machine.run(
            task.workload,
            profile_seed=task.profile_seed,
            eval_seed=task.eval_seed,
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
        args: dict,
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
                        pkey, args, workload, input_seed, self.cache_dir
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

        ``machine_kwargs`` are ``Machine``'s keyword arguments; a bad
        one raises :class:`~repro.errors.ConfigError` before any stage
        runs.  Speedups are reported against the first system in
        ``systems`` (``BS+DM`` in the standard set), matching
        :func:`repro.system.experiment.run_suite`.
        """
        sweep_start = time.perf_counter()
        systems = systems or standard_systems()
        if not workloads:
            raise ConfigError("no workloads given")
        if not systems:
            raise ConfigError("no systems given")
        names: set[str] = set()
        for workload in workloads:
            if workload.name in names:
                raise ConfigError(
                    f"two workloads are named {workload.name!r}: profiles, "
                    "the mix and the result table are keyed by workload name"
                )
            names.add(workload.name)
        system_args = [_machine_args(s, machine_kwargs) for s in systems]
        Machine(**system_args[0])  # checks every platform and backend option
        metrics = {stage: StageMetrics(stage) for stage in STAGES}
        profile_keys = {
            workload.name: _stage_key(
                "profile",
                system_args[0],
                workload.spec_dict(),
                profile_seed,
                drop=("system", *_BACKEND_ONLY),
            )
            for workload in workloads
        }
        mix_key = stable_hash(
            "mix", [profile_keys[w.name] for w in workloads]
        )

        # Plan: resolve every cell to a cached result or a pending cell.
        cells: list[tuple[Workload, SystemConfig, dict, str]] = []
        results: dict[int, dict] = {}
        pending: list[int] = []
        for index, (workload, (system, args)) in enumerate(
            (w, s) for w in workloads for s in zip(systems, system_args)
        ):
            result_key = _stage_key(
                "result",
                args,
                workload.spec_dict(),
                profile_seed,
                eval_seed,
                mix_key if _uses_mix(system) else None,
            )
            cells.append((workload, system, args, result_key))
            cached = self._cached("result", result_key)
            if cached is not None:
                metrics["evaluate"].cache_hits += 1
                results[index] = cached
            else:
                pending.append(index)

        def selection_key(args: dict, pkey: str) -> str:
            return _stage_key("selection", args, pkey, drop=_BACKEND_ONLY)

        # Profile: one stage per workload, shared by every system.
        needs_mix = any(_uses_mix(cells[index][1]) for index in pending)
        wanted: dict[str, Workload] = {}
        if needs_mix:
            # The suite mix folds in every workload's profile.
            for workload in workloads:
                wanted[profile_keys[workload.name]] = workload
        for index in pending:
            workload, system, args, _key = cells[index]
            pkey = profile_keys[workload.name]
            if system.sdam and (
                self._cached("selection", selection_key(args, pkey)) is None
            ):
                wanted[pkey] = workload
        profiles, failures = self._ensure_profiles(
            wanted, system_args[0], profile_seed, metrics["profile"]
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
            workload, system, args, result_key = cells[index]
            pkey = profile_keys[workload.name]
            skey = selection = None
            if system.sdam:
                skey = selection_key(args, pkey)
                selection = self._cached("selection", skey)
                if selection is None:
                    metrics["selection"].cache_misses += 1
                else:
                    metrics["selection"].cache_hits += 1
            if system.sdam and selection is None:
                failure = failures.get(pkey)
            elif _uses_mix(system):
                # A cell whose own profile failed reports that failure.
                failure = failures.get(pkey, mix_error)
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
                    args=args,
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
            workload, system, args, result_key = cells[outcome.index]
            for stage, seconds in outcome.timings.items():
                metrics[stage].wall_seconds += seconds
            if outcome.selection is not None:
                skey = selection_key(args, profile_keys[workload.name])
                self._memo["selection"][skey] = outcome.selection
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

        The one-cell case of :meth:`run_suite`: a ``BS+BSM`` cell's
        suite mix is then the workload's own profile, exactly what
        ``Machine.run`` uses without a suite context.
        """
        suite = self.run_suite(
            [workload],
            [system],
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            **machine_kwargs,
        )
        if suite.errors:
            error = suite.errors[0]
            raise ConfigError(
                f"{workload.name} on {system.key} failed in "
                f"{error.stage}: {error.message}"
            )
        return suite.table.results[workload.name][system.label]
