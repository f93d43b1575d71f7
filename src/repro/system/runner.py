"""Cached sweeps: the one way to run (workloads x systems).

:class:`Session` runs a sweep as one workload-major loop over its
cells, in-process; :meth:`Session.run` is the one-cell sweep and
:meth:`Session.compare` a loop over it.  Every sweep follows the
paper's method (§7.3): profile with one input, evaluate with another,
and select ``BS+BSM``'s global mapping from the suite mix.  A cell's
result is a small chain of stages, each a call on a
:class:`~repro.system.machine.Machine` built from the session's keyword
arguments:

.. code-block:: text

    workload ──> profile ──┬──> selection ──> run ──> result
                           └──> suite mix ─────┘

Every stage output comes from one memoised lookup: the session's
in-memory memo, then the on-disk
:class:`~repro.system.tracefile.StageStore`, else it is computed and
published to both.  A cell whose result is cached touches no other
stage; a profile is looked up at most once per sweep and shared by
every system, and the suite mix only when a cell needs it.  Results
are stored as ``MachineResult.to_dict()`` dicts, so fresh and cached
cells are exactly interchangeable.

A stage key hashes the workload spec, the seeds, every ``Machine``
argument (bound against ``Machine``'s own signature with defaults
applied, so a new argument is keyed without being listed here) and
:func:`source_digest`, so an entry written by other code is never read.

Results are returned in workload-major order.  A stage that raises is
recorded as a :class:`CellError` on every cell that needs its output,
and the sweep continues.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.keys import stable_hash
from repro.errors import ConfigError
from repro.ledger import PROVENANCE, SUM, Ledger, Record, key
from repro.profiling.profiler import WorkloadProfile
from repro.system.config import SystemConfig, standard_systems, system_by_key
from repro.system.experiment import SpeedupTable
from repro.system.machine import Machine, MachineResult
from repro.system.stages import build_mix_profile
from repro.system.tracefile import StageStore
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
    cache_hits: int = field(default=0, metadata=SUM)
    cache_misses: int = field(default=0, metadata=SUM)
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

    The metrics and wall time say how the sweep ran (cache hits and
    misses, seconds), not what it computed, so a cold and a warm sweep
    of the same cells have one :meth:`fingerprint`.
    """

    table: SpeedupTable
    errors: list[CellError] = field(default_factory=list)
    metrics: dict[str, StageMetrics] = field(
        default_factory=dict, metadata=PROVENANCE
    )
    wall_seconds: float = field(default=0.0, metadata=PROVENANCE)

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
# The engine
# ---------------------------------------------------------------------------

def _resolve(system: SystemConfig | str) -> SystemConfig:
    return system if isinstance(system, SystemConfig) else system_by_key(system)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


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
    """Runs cached (workload x system) sweeps, in-process.

    Parameters
    ----------
    cache_dir:
        Directory that persists stage outputs across sessions and
        processes; ``None`` (the default) keeps them in memory, for the
        session's lifetime.
    machine_kwargs:
        ``Machine``'s keyword arguments (``hbm``, ``engine``,
        ``backend``, ``backend_options``, ``dl_config``, ...), for every
        cell; each one is part of every stage key.  A name ``Machine``
        does not take, or a value it rejects, raises
        :class:`~repro.errors.ConfigError` here.
    """

    def __init__(self, cache_dir: str | None = None, **machine_kwargs):
        Machine(**_machine_args(system_by_key("bs_dm"), machine_kwargs))
        self.machine_kwargs = machine_kwargs
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.store = StageStore(self.cache_dir) if self.cache_dir else None
        # kind -> key -> stage output, for the session's lifetime.
        self._memo: dict[str, dict] = {
            kind: {} for kind in ("profile", "selection", "result")
        }

    def __repr__(self) -> str:
        return f"Session(cache_dir={self.cache_dir!r})"

    # -- cached stage outputs ------------------------------------------------
    def _lookup(self, kind: str, key: str):
        """A stage output from memory, else from the store, else None."""
        memo = self._memo[kind]
        if key not in memo and self.store is not None:
            value = self.store.load(kind, key)
            if value is not None:
                memo[key] = value
        return memo.get(key)

    def _compute(self, kind: str, key: str, metrics: StageMetrics, compute):
        """``compute()``, timed, then memoised and published.

        If it raises, :class:`_StageFailed` names ``metrics.stage``.
        """
        start = time.perf_counter()
        try:
            value = compute()
        except Exception as exc:  # noqa: BLE001 — recorded on the cell
            raise _StageFailed(metrics.stage, _describe(exc)) from None
        finally:
            metrics.wall_seconds += time.perf_counter() - start
        self._memo[kind][key] = value
        if self.store is not None:
            self.store.store(kind, key, value)
        return value

    # -- the sweep -----------------------------------------------------------
    def sweep(
        self,
        workloads: list[Workload],
        systems: list[SystemConfig | str] | None = None,
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
    ) -> SuiteResult:
        """Run every workload under every system, cached.

        ``backend`` overrides the session's timing backend for this
        call; a bad one raises :class:`~repro.errors.ConfigError` before
        any stage runs.  Speedups are reported against the first system
        in ``systems`` (``BS+DM`` in the standard set).  A stage that
        raises becomes a :class:`CellError` on every cell that needs
        it; :meth:`SuiteResult.raise_errors` turns those into an
        exception.
        """
        sweep_start = time.perf_counter()
        systems = [_resolve(s) for s in systems or standard_systems()]
        if not workloads:
            raise ConfigError("no workloads given")
        names: set[str] = set()
        for workload in workloads:
            if workload.name in names:
                raise ConfigError(
                    f"two workloads are named {workload.name!r}: profiles, "
                    "the mix and the result table are keyed by workload name"
                )
            names.add(workload.name)
        machine_kwargs = dict(self.machine_kwargs)
        if backend is not None:
            machine_kwargs["backend"] = backend
        system_args = [_machine_args(s, machine_kwargs) for s in systems]
        Machine(**system_args[0])  # checks the per-call backend
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
        # This sweep's profile of each workload, or its failure.
        profiles: dict[str, WorkloadProfile | _StageFailed] = {}

        def profile(workload: Workload) -> WorkloadProfile | _StageFailed:
            """One workload's profile, looked up once per sweep."""
            pkey = profile_keys[workload.name]
            if pkey not in profiles:
                outcome = self._lookup("profile", pkey)
                if outcome is not None:
                    metrics["profile"].cache_hits += 1
                else:
                    metrics["profile"].cache_misses += 1
                    try:
                        outcome = self._compute(
                            "profile",
                            pkey,
                            metrics["profile"],
                            lambda: Machine(**system_args[0]).profile(
                                workload, input_seed=profile_seed
                            ),
                        )
                    except _StageFailed as failure:
                        outcome = failure
                profiles[pkey] = outcome
            return profiles[pkey]

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
            start = time.perf_counter()
            mix = build_mix_profile(folded)
            metrics["mix"].wall_seconds += time.perf_counter() - start
            metrics["mix"].cache_misses += 1
            return mix

        def cell(workload: Workload, system: SystemConfig, args: dict) -> dict:
            """One cell's serialised result; a failed stage raises."""
            uses_mix = _uses_mix(system)
            result_key = _stage_key(
                "result",
                args,
                workload.spec_dict(),
                profile_seed,
                eval_seed,
                mix_key if uses_mix else None,
            )
            result = self._lookup("result", result_key)
            if result is not None:
                metrics["evaluate"].cache_hits += 1
                return result
            selection = mix_profile = None
            if system.sdam:
                selection_key = _stage_key(
                    "selection",
                    args,
                    profile_keys[workload.name],
                    drop=_BACKEND_ONLY,
                )
                selection = self._lookup("selection", selection_key)
                if selection is not None:
                    metrics["selection"].cache_hits += 1
                else:
                    metrics["selection"].cache_misses += 1
                    own = _unless_failed(profile(workload))
                    selection = self._compute(
                        "selection",
                        selection_key,
                        metrics["selection"],
                        lambda: Machine(**args).select(own),
                    )
            elif uses_mix:
                mix = suite_mix()
                # A cell whose own profile failed reports that failure.
                _unless_failed(profile(workload))
                mix_profile = _unless_failed(mix)
            result = self._compute(
                "result",
                result_key,
                metrics["evaluate"],
                lambda: Machine(**args)
                .run(
                    workload,
                    profile_seed=profile_seed,
                    eval_seed=eval_seed,
                    mix_profile=mix_profile,
                    selection=selection,
                )
                .to_dict(),
            )
            metrics["evaluate"].cache_misses += 1
            metrics["evaluate"].bytes_simulated += int(
                result["stats"]["bytes_moved"]
            )
            return result

        table = SpeedupTable(baseline_label=systems[0].label)
        errors: list[CellError] = []
        for workload in workloads:
            for system, args in zip(systems, system_args):
                try:
                    result = cell(workload, system, args)
                except _StageFailed as failure:
                    errors.append(
                        CellError(
                            workload.name,
                            system.key,
                            failure.stage,
                            failure.message,
                        )
                    )
                else:
                    table.add(MachineResult.from_dict(result))
        return SuiteResult(
            table=table,
            errors=errors,
            metrics=metrics,
            wall_seconds=time.perf_counter() - sweep_start,
        )

    def run(
        self,
        workload: Workload,
        system: SystemConfig | str = "sdm_bsm",
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
    ) -> MachineResult:
        """One (workload, system) cell, cached; raises on failure.

        The one-cell :meth:`sweep`: a ``BS+BSM`` cell's suite mix is
        then the workload's own profile, exactly what ``Machine.run``
        uses without a suite context.
        """
        system = _resolve(system)
        suite = self.sweep(
            [workload],
            [system],
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            backend=backend,
        )
        if suite.errors:
            error = suite.errors[0]
            raise ConfigError(
                f"{workload.name} on {system.key} failed in "
                f"{error.stage}: {error.message}"
            )
        return suite.table.results[workload.name][system.label]

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
        backend: str | None = None,
    ) -> dict[str, MachineResult]:
        """One workload under several systems, keyed by the *caller's*
        system key (so duplicate labels cannot collide)."""
        return {
            system if isinstance(system, str) else system.key: self.run(
                workload,
                system,
                profile_seed=profile_seed,
                eval_seed=eval_seed,
                backend=backend,
            )
            for system in systems
        }
