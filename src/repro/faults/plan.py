"""Deterministic, seedable fault injection for the experiment engine.

A :class:`FaultPlan` is a picklable description of *which* failures to
inject *where*: each :class:`FaultSpec` names a site pattern (see
:mod:`repro.faults.sites`), a fault kind, a token match, and a firing
budget.  Plans are pure data — no wall-clock, no global randomness —
so the same plan against the same sweep injects the same faults in
every process, which is what makes fault-path tests reproducible:

* *Determinism*: probabilistic specs decide via a stable hash of
  ``(plan seed, site, token)``, never ``random``.
* *First attempts only*: a fault never fires on a retry
  (``attempt > 1``), so every injected transient failure converges.
* *Bounded firing*: ``times`` caps how often a spec fires.  With a
  ``ledger_dir`` the cap is enforced across processes through atomic
  marker files; without one, per-process counters apply (the runner
  attaches a ledger automatically when it has a cache directory).

Activate a plan with ``Session(faults=...)`` or through the
``REPRO_FAULT_PLAN`` environment variable (inline JSON or a path to a
JSON file), which is how CI exercises the failure paths.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.core.keys import stable_hash
from repro.errors import ConfigError, WorkerCrashError
from repro.faults.sites import (
    BACKEND_SITES,
    ENGINE_SITES,
    matches_known_site,
)

__all__ = ["ENV_VAR", "FAULT_KINDS", "FaultPlan", "FaultSpec"]

ENV_VAR = "REPRO_FAULT_PLAN"
FAULT_KINDS = ("raise", "stall", "corrupt", "break-pool")


def _corrupt_file(path: Path) -> None:
    """Truncate and garble a blob so checksums/decoders must reject it."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    path.write_bytes(data[: len(data) // 2] + b"\xde\xad\xbe\xef")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable failure: where, what, how often.

    ``site`` and ``match`` are ``fnmatch`` patterns over the site name
    and the engine-supplied token (cache key or ``workload:system``).
    ``times`` bounds total firings; ``probability`` thins matching
    events deterministically from the plan seed; ``seconds`` is the
    stall duration for ``kind="stall"``.
    """

    site: str
    kind: str = "raise"
    match: str = "*"
    times: int = 1
    probability: float = 1.0
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not (
            matches_known_site(self.site, family="engine")
            or matches_known_site(self.site, family="backend")
        ):
            hint = (
                "; device.* sites are injected through "
                "repro.ras.DeviceFaultPlan, not the engine FaultPlan"
                if matches_known_site(self.site, family="device")
                else ""
            )
            raise ConfigError(
                f"fault site pattern {self.site!r} matches no engine "
                f"or backend fault site (known: "
                f"{', '.join(ENGINE_SITES + BACKEND_SITES)})"
                f"{hint}"
            )
        if self.times < 1:
            raise ConfigError("a fault spec must allow at least one firing")

    def spec_id(self) -> str:
        """A stable identifier for ledger bookkeeping."""
        return stable_hash(
            "fault-spec", self.site, self.kind, self.match, self.times,
            self.probability, self.seconds,
        )[:16]

    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return {
            "site": self.site,
            "kind": self.kind,
            "match": self.match,
            "times": self.times,
            "probability": self.probability,
            "seconds": self.seconds,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Rebuild a spec, tolerating missing/extra keys."""
        return cls(
            site=str(data["site"]),
            kind=str(data.get("kind", "raise")),
            match=str(data.get("match", "*")),
            times=int(data.get("times", 1)),
            probability=float(data.get("probability", 1.0)),
            seconds=float(data.get("seconds", 0.0)),
            message=str(data.get("message", "injected fault")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs plus the firing machinery."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    ledger_dir: str | None = None
    _fired: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    # -- construction --------------------------------------------------------
    @classmethod
    def single(cls, site: str, **spec_kwargs) -> "FaultPlan":
        """A one-spec plan (the common test-fixture shape)."""
        return cls(specs=(FaultSpec(site=site, **spec_kwargs),))

    def with_ledger(self, ledger_dir: str | Path) -> "FaultPlan":
        """The same plan counting firings through an on-disk ledger."""
        return dataclasses.replace(self, ledger_dir=str(ledger_dir))

    # -- serialisation (the REPRO_FAULT_PLAN hook) ---------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return {
            "seed": self.seed,
            "ledger_dir": self.ledger_dir,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self, **json_kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **json_kwargs)

    @classmethod
    def from_dict(cls, data: dict | list) -> "FaultPlan":
        """Rebuild a plan; a bare list is read as a spec list."""
        if isinstance(data, list):
            data = {"specs": data}
        return cls(
            specs=tuple(
                FaultSpec.from_dict(spec) for spec in data.get("specs", ())
            ),
            seed=int(data.get("seed", 0)),
            ledger_dir=data.get("ledger_dir"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from JSON text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_env(cls, env_var: str = ENV_VAR) -> "FaultPlan | None":
        """The plan named by ``$REPRO_FAULT_PLAN``, if any.

        The variable holds either inline JSON or a path to a JSON file.
        """
        raw = os.environ.get(env_var)
        if not raw or not raw.strip():
            return None
        text = raw.strip()
        if not text.startswith(("{", "[")):
            text = Path(text).read_text()
        return cls.from_json(text)

    # -- firing --------------------------------------------------------------
    def _chance(self, spec: FaultSpec, site: str, token: str) -> float:
        """A stable fraction in [0, 1) for a (seed, site, token) event."""
        digest = stable_hash("fault-roll", self.seed, spec.spec_id(), site, token)
        return int(digest[:12], 16) / float(1 << 48)

    def _claim(self, spec: FaultSpec) -> bool:
        """Consume one firing slot; False once the budget is spent."""
        sid = spec.spec_id()
        if self.ledger_dir:
            ledger = Path(self.ledger_dir)
            ledger.mkdir(parents=True, exist_ok=True)
            for slot in range(spec.times):
                try:
                    (ledger / f"{sid}.{slot}").touch(exist_ok=False)
                    return True
                except FileExistsError:
                    continue
            return False
        fired = self._fired.get(sid, 0)
        if fired >= spec.times:
            return False
        self._fired[sid] = fired + 1
        return True

    def should_fire(
        self, site: str, token: str, attempt: int = 1
    ) -> FaultSpec | None:
        """The first spec that claims this event, if any.

        Retries (``attempt > 1``) never fault: every injected transient
        failure is guaranteed to converge under a retry policy.
        """
        if attempt > 1:
            return None
        for spec in self.specs:
            if not fnmatch(site, spec.site):
                continue
            if not fnmatch(token, spec.match):
                continue
            if (
                spec.probability < 1.0
                and self._chance(spec, site, token) >= spec.probability
            ):
                continue
            if self._claim(spec):
                return spec
        return None

    def inject(
        self,
        site: str,
        token: str,
        attempt: int = 1,
        path: str | Path | None = None,
        allow_exit: bool = False,
    ) -> FaultSpec | None:
        """Check the plan at a site and act on the matching spec.

        ``corrupt`` garbles ``path`` in place; ``stall`` sleeps;
        ``raise`` raises :class:`WorkerCrashError`; ``break-pool``
        hard-exits the process when ``allow_exit`` (i.e. inside a pool
        worker) and degrades to ``raise`` otherwise.
        """
        spec = self.should_fire(site, token, attempt)
        if spec is None:
            return None
        if spec.kind == "corrupt":
            if path is not None:
                _corrupt_file(Path(path))
            return spec
        if spec.kind == "stall":
            time.sleep(max(0.0, spec.seconds))
            return spec
        if spec.kind == "break-pool" and allow_exit:
            os._exit(13)
        raise WorkerCrashError(f"{spec.message} [{site} {token}]")
