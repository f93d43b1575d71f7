"""Runtime cross-tier divergence guard for memory backends.

The fast tiers (``"vector"``, ``"fast"``) are *calibrated* to the
event-driven reference, not proven equivalent — a regression in a lane
kernel or a miscompiled numpy could silently skew every result they
produce.  :class:`GuardedBackend` wraps a
primary backend and, on every run, replays a deterministic sample of
the decoded chunks through a freshly-built reference backend, comparing
the two tiers chunk-by-chunk:

* **exact invariants** — request count, bytes moved, per-channel
  request counts, and hits+misses==requests must match exactly (both
  tiers consume the same decoded chunk);
* **tolerance band** — the primary/reference makespan ratio must fall
  inside ``tolerance`` (the tiers are cycle-calibrated, not
  cycle-identical; see ``tests/hbm/test_calibration.py``).

On a mismatch the guard either *demotes* — re-runs the whole stream
through the reference tier, permanently for the rest of this backend's
life, recording a ``tier-demoted`` degradation — or *raises* a
structured :class:`~repro.errors.BackendDivergenceError`, per ``mode``.
Either way the full comparison report lands in
``last_health.guard`` — divergence is never silent.

Sampling is deterministic (a :func:`~repro.core.keys.stable_hash`
fraction per chunk index, never ``random``), so a guarded run is
reproducible; the ``backend.divergence`` fault site perturbs a sampled
chunk's primary result to exercise the demotion path deterministically.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.keys import stable_hash
from repro.errors import BackendDivergenceError, ConfigError
from repro.faults.sites import BACKEND_DIVERGENCE
from repro.hbm.decode import DecodedTrace, decode_trace
from repro.hbm.stats import BackendHealth, RunStats

__all__ = [
    "DEFAULT_GUARD_SAMPLE",
    "DEFAULT_GUARD_TOLERANCE",
    "GuardedBackend",
    "TierFactory",
]

#: Fraction of decoded chunks replayed through the reference tier.
DEFAULT_GUARD_SAMPLE = 0.05

#: Accepted primary/reference makespan ratio band per sampled chunk.
#: Deliberately wider than the whole-run calibration bands: a single
#: chunk is noisier than a full trace, and the guard hunts for gross
#: divergence (broken kernels, corrupted merges), not calibration
#: drift.
DEFAULT_GUARD_TOLERANCE = (0.10, 2.0)

GUARD_MODES = ("demote", "raise")


class TierFactory:
    """A picklable "build me a fresh backend" closure.

    The guard's replay factories must survive pickling (guarded
    backends ride inside campaign checkpoints), which rules out
    lambdas; this class captures the registry name plus construction
    kwargs instead.
    """

    def __init__(
        self, name: str, config, max_inflight: int | None = None, **options
    ):
        self.name = name
        self.config = config
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.options = dict(options)

    def __call__(self):
        from repro.hbm.backend import create_backend

        options = dict(self.options)
        if self.max_inflight is not None:
            options["max_inflight"] = self.max_inflight
        return create_backend(self.name, self.config, **options)


class GuardedBackend:
    """A memory backend wrapper that cross-checks tiers at runtime.

    Satisfies the :class:`~repro.hbm.backend.MemoryBackend` protocol;
    the machine wraps its chosen backend in one of these when
    ``Machine(guard=True)``.  ``primary_factory`` and
    ``reference_factory`` build fresh instances of each tier for the
    chunk replays, so the guard's verdict is independent of the wrapped
    instance's accumulated state.
    """

    def __init__(
        self,
        primary,
        primary_factory: Callable[[], object],
        reference_factory: Callable[[], object],
        primary_name: str = "vector",
        reference_name: str = "event",
        sample: float = DEFAULT_GUARD_SAMPLE,
        tolerance: tuple[float, float] = DEFAULT_GUARD_TOLERANCE,
        mode: str = "demote",
        faults=None,
        seed: int = 0,
    ):
        if mode not in GUARD_MODES:
            raise ConfigError(
                f"unknown guard mode {mode!r}; expected one of {GUARD_MODES}"
            )
        if not (0.0 < sample <= 1.0):
            raise ConfigError("guard sample must be in (0, 1]")
        lo, hi = tolerance
        if not (0.0 < lo < hi):
            raise ConfigError("guard tolerance must be an increasing band")
        self.primary = primary
        self.primary_factory = primary_factory
        self.reference_factory = reference_factory
        self.primary_name = primary_name
        self.reference_name = reference_name
        self.sample = float(sample)
        self.tolerance = (float(lo), float(hi))
        self.mode = mode
        self.faults = faults
        self.seed = int(seed)
        self.config = primary.config
        self.demoted = False
        self.last_health: BackendHealth | None = None

    @property
    def last_traffic(self):
        """The guarded tier's per-run traffic, if it keeps one.

        Forwarded so a guarded tiered backend still surfaces its
        :class:`~repro.tier.stats.TierTraffic` on results.
        """
        return getattr(self.primary, "last_traffic", None)

    # -- protocol entry points ----------------------------------------------
    def simulate(self, ha) -> RunStats:
        """Run a hardware-address trace (decode, then simulate)."""
        ha = np.asarray(ha, dtype=np.uint64)
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(
        self,
        decoded: DecodedTrace | Iterable[DecodedTrace],
        forced_miss=None,
    ) -> RunStats:
        """Run the stream through the primary tier, then spot-check it.

        The decoded stream is materialised chunk-by-chunk (the guard
        must be able to replay individual chunks), sampled
        deterministically, and each sampled chunk is evaluated by a
        fresh primary and a fresh reference.  Divergence
        demotes or raises per ``mode``; the comparison report is always
        attached to ``last_health.guard``.
        """
        if isinstance(decoded, DecodedTrace):
            chunks = [decoded]
        else:
            chunks = list(decoded)
            if forced_miss is not None:
                # Match the concrete backends' contract.
                from repro.errors import SimulationError

                raise SimulationError(
                    "forced_miss requires a whole DecodedTrace, not chunks"
                )

        if self.demoted:
            stats = self._run_reference(chunks, forced_miss)
            health = BackendHealth(backend=self.primary_name)
            health.record(
                "tier-demoted",
                "previous divergence pinned this backend to the "
                f"{self.reference_name} tier",
                to=self.reference_name,
            )
            self.last_health = health
            return stats

        primary_stats = self._run_primary(chunks, forced_miss)
        health = BackendHealth(backend=self.primary_name)

        report = self._check(chunks, forced_miss)
        health.guard = report
        self.last_health = health
        if not report["diverged"]:
            return primary_stats

        failing = [c for c in report["checks"] if not c["ok"]]
        reason = (
            f"{self.primary_name} diverged from {self.reference_name} on "
            f"{len(failing)}/{len(report['checks'])} sampled chunk(s): "
            f"{failing[0]['reason']}"
        )
        if self.mode == "raise":
            raise BackendDivergenceError(reason, report=report)
        self.demoted = True
        report["demoted"] = True
        health.record("tier-demoted", reason, to=self.reference_name)
        return self._run_reference(chunks, forced_miss)

    # -- pieces ---------------------------------------------------------------
    def _run_primary(self, chunks, forced_miss) -> RunStats:
        if len(chunks) == 1 and forced_miss is not None:
            return self.primary.simulate_decoded(chunks[0], forced_miss)
        return self.primary.simulate_decoded(iter(chunks))

    def _run_reference(self, chunks, forced_miss) -> RunStats:
        reference = self.reference_factory()
        if len(chunks) == 1 and forced_miss is not None:
            return reference.simulate_decoded(chunks[0], forced_miss)
        return reference.simulate_decoded(iter(chunks))

    def _sampled_indices(self, chunks) -> list[int]:
        """Deterministically pick which chunks to replay.

        Every non-empty chunk rolls a stable fraction; at least one
        chunk is always sampled (the one with the smallest roll), so a
        guarded run never silently skips verification.
        """
        rolls = []
        for index, chunk in enumerate(chunks):
            if len(chunk) == 0:
                continue
            digest = stable_hash("guard-sample", self.seed, index)
            rolls.append((int(digest[:12], 16) / float(1 << 48), index))
        if not rolls:
            return []
        picked = sorted(index for roll, index in rolls if roll < self.sample)
        if not picked:
            picked = [min(rolls)[1]]
        return picked

    def _check(self, chunks, forced_miss) -> dict:
        """Replay sampled chunks through both tiers and compare."""
        lo, hi = self.tolerance
        picked = self._sampled_indices(chunks)
        checks: list[dict] = []
        for index in picked:
            chunk = chunks[index]
            forced = forced_miss if len(chunks) == 1 else None
            primary = self.primary_factory().simulate_decoded(chunk, forced)
            spec = None
            if self.faults is not None:
                spec = self.faults.should_fire(
                    BACKEND_DIVERGENCE, f"chunk{index}", 1
                )
            if spec is not None:
                # Model a silently-broken fast tier: scale its answer
                # far outside any calibration band.
                from dataclasses import replace

                primary = replace(
                    primary, makespan_ns=primary.makespan_ns * 100.0 + 1.0
                )
            reference = self.reference_factory().simulate_decoded(
                chunk, forced
            )
            checks.append(
                self._compare(index, primary, reference, lo, hi, spec)
            )
        report = {
            "primary": self.primary_name,
            "reference": self.reference_name,
            "chunks": len(chunks),
            "sample": self.sample,
            "tolerance": [lo, hi],
            "sampled_chunks": picked,
            "checks": checks,
            "diverged": any(not c["ok"] for c in checks),
            "demoted": False,
        }
        return report

    @staticmethod
    def _compare(index, primary, reference, lo, hi, spec) -> dict:
        """One chunk's verdict: exact invariants, then the ratio band."""
        reason = None
        if primary.requests != reference.requests:
            reason = (
                f"request counts differ: {primary.requests} != "
                f"{reference.requests}"
            )
        elif primary.bytes_moved != reference.bytes_moved:
            reason = (
                f"bytes moved differ: {primary.bytes_moved} != "
                f"{reference.bytes_moved}"
            )
        elif primary.row_hits + primary.row_misses != primary.requests:
            reason = "primary hits+misses do not sum to requests"
        elif not np.array_equal(
            primary.per_channel_requests, reference.per_channel_requests
        ):
            reason = "per-channel request counts differ"
        else:
            ref_span = reference.makespan_ns
            ratio = (
                primary.makespan_ns / ref_span
                if ref_span > 0
                else (1.0 if primary.makespan_ns == 0 else float("inf"))
            )
            if not (lo <= ratio <= hi):
                reason = (
                    f"makespan ratio {ratio:.4f} outside "
                    f"[{lo:.2f}, {hi:.2f}]"
                )
        ref_span = reference.makespan_ns
        return {
            "chunk": int(index),
            "requests": int(reference.requests),
            "primary_makespan_ns": float(primary.makespan_ns),
            "reference_makespan_ns": float(ref_span),
            "ratio": float(primary.makespan_ns / ref_span)
            if ref_span > 0
            else None,
            "injected": spec is not None,
            "ok": reason is None,
            "reason": reason,
        }
