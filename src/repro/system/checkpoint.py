"""Crash-safe campaign checkpoints.

Long campaigns (``repro ras``, ``repro adapt``) periodically persist
their live state — the simulated machines, journals, controllers, and
a loop cursor — so a killed run can ``--resume`` and finish with a
fingerprint **bit-identical** to the uninterrupted run.  That identity
holds because campaigns are seeded-deterministic: everything outside
the pickled state (schedules, traces, fault plans) is recomputed from
the seed, and everything stateful rides in the checkpoint.

The format is a single pickle with a small validated envelope::

    {"version": 3, "campaign": "ras" | "adaptive",
     "key": <stable_hash of the campaign parameters>,
     "cursor": <loop index to resume from>, "state": <campaign dict>}

``key`` binds a checkpoint to the exact parameter set that produced
it; resuming with different parameters is a hard
:class:`~repro.errors.ConfigError`, never a silently-wrong campaign.
Writes are atomic (temp file + ``os.replace``), so a kill *during*
checkpointing leaves the previous checkpoint intact.

:class:`CheckpointLoop` is the one resume/persist/stop-after loop both
campaigns drive their step loop through.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.errors import CampaignInterrupted, ConfigError

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointLoop",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 4


def save_checkpoint(
    path: str | Path, campaign: str, key: str, cursor: int, state: dict
) -> None:
    """Atomically persist one campaign checkpoint."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "campaign": campaign,
        "key": key,
        "cursor": int(cursor),
        "state": state,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(
    path: str | Path, campaign: str, key: str
) -> tuple[int, dict]:
    """Load and validate a checkpoint; returns ``(cursor, state)``.

    Refuses (with a :class:`ConfigError`) a file written by a
    different checkpoint version, a different campaign type, or a
    campaign with different parameters — a resumed run must continue
    the *same* campaign or not at all.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no checkpoint at {path}")
    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except Exception as error:
            raise ConfigError(
                f"unreadable checkpoint {path}: {error}"
            ) from error
    if not isinstance(payload, dict) or "version" not in payload:
        raise ConfigError(f"{path} is not a campaign checkpoint")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint {path} has version {payload['version']}, "
            f"this build writes {CHECKPOINT_VERSION}"
        )
    if payload.get("campaign") != campaign:
        raise ConfigError(
            f"checkpoint {path} belongs to a "
            f"{payload.get('campaign')!r} campaign, not {campaign!r}"
        )
    if payload.get("key") != key:
        raise ConfigError(
            f"checkpoint {path} was written by a campaign with "
            "different parameters (seed/kinds/backend/config); refusing "
            "to resume into a different experiment"
        )
    return int(payload["cursor"]), payload["state"]


class CheckpointLoop:
    """A campaign's step loop, made resumable.

    :meth:`start` loads ``(cursor, state)`` from ``path`` when resuming
    and otherwise builds fresh state; :meth:`steps` yields the step
    indices from the cursor on.  With a ``path`` the loop persists the
    state before the first fresh step, after every ``every`` completed
    steps and after the last one.  ``stop_after`` (the test/CI kill
    model) raises :class:`~repro.errors.CampaignInterrupted` once that
    many steps have completed and been persisted.  ``state`` is a dict
    of the live objects; a campaign keeps its accumulators in it so a
    persist always sees their current values.
    """

    def __init__(
        self,
        path,
        campaign: str,
        key: str,
        *,
        resume: bool = False,
        every: int = 1,
        stop_after: int | None = None,
        error: type[Exception] = ConfigError,
    ):
        if path is None and (resume or stop_after is not None):
            raise error("resume and stop_after require a checkpoint_path")
        if stop_after is not None and stop_after < 1:
            raise ConfigError(f"stop_after must be >= 1, got {stop_after}")
        self.path = path
        self.campaign = campaign
        self.key = key
        self.resume = resume
        self.every = max(1, every)
        self.stop_after = stop_after

    def start(self, fresh) -> tuple[int, dict]:
        """``(cursor, state)``: loaded when resuming, else ``(0, fresh())``."""
        if self.resume:
            return load_checkpoint(self.path, self.campaign, self.key)
        return 0, fresh()

    def steps(self, cursor: int, total: int, state: dict, what: str):
        """Yield step indices ``cursor..total-1``, persisting as they
        complete; ``what`` names a step in the interruption message
        (``"RAS campaign stopped after batch"``)."""
        if self.path is not None and not self.resume:
            self._persist(0, state)
        for index in range(cursor, total):
            yield index
            completed = index + 1
            if self.path is not None and (
                completed % self.every == 0 or completed == total
            ):
                self._persist(completed, state)
            if self.stop_after is not None and completed >= self.stop_after:
                raise CampaignInterrupted(
                    f"{what} {completed}/{total} (checkpoint saved)",
                    checkpoint_path=str(self.path),
                )

    def _persist(self, cursor: int, state: dict) -> None:
        save_checkpoint(self.path, self.campaign, self.key, cursor, state)
