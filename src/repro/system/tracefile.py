"""Profile and selection persistence (npz archives).

The paper's profiling is offline and reused across runs of the same
program ("the profiling result can be reused across variations of the
program as long as the data structure and memory allocation site do
not change", Section 6.2).  These helpers store per-variable profiles
and mapping selections on disk so a profiling pass can be decoupled
from the evaluation runs that consume it.

:class:`StageStore` is the content-addressed cache the experiment
engine builds on: every entry carries a checksum sidecar, and an entry
that fails its checksum or its decoder is a miss — a torn or edited
entry costs a recomputation but never poisons a result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np

from repro.core.selection import MappingSelection
from repro.errors import ProfilingError
from repro.profiling.profiler import VariableProfile, WorkloadProfile

__all__ = [
    "StageStore",
    "save_profile",
    "load_profile",
    "save_selection",
    "load_selection",
]

PROFILE_FORMAT = 1
SELECTION_FORMAT = 2  # 2: variables in binding order, not sorted by id


def save_profile(path: str | Path, profile: WorkloadProfile) -> Path:
    """Write a workload profile (per-variable sub-traces) to disk."""
    path = Path(path)
    payload: dict[str, np.ndarray] = {
        "format": np.int64(PROFILE_FORMAT),
        "name": np.bytes_(profile.name.encode()),
        "total_references": np.int64(profile.total_references),
        "count": np.int64(len(profile.profiles)),
    }
    for index, variable in enumerate(profile.profiles):
        payload[f"v{index}_id"] = np.int64(variable.variable_id)
        payload[f"v{index}_name"] = np.bytes_(variable.name.encode())
        payload[f"v{index}_size"] = np.int64(variable.size_bytes)
        payload[f"v{index}_refs"] = np.int64(variable.references)
        payload[f"v{index}_addresses"] = variable.addresses
    np.savez_compressed(path, **payload)
    return path if path.suffix == ".npz" else path.with_suffix(".npz")


def save_selection(path: str | Path, selection: MappingSelection) -> Path:
    """Write a mapping selection (window perms + bindings) to disk."""
    path = Path(path)
    # In binding order: the order numbers the clusters on load.
    variable_ids = np.asarray(list(selection.variable_cluster), dtype=np.int64)
    clusters = np.asarray(
        list(selection.variable_cluster.values()), dtype=np.int64
    )
    perms = (
        np.stack(selection.window_perms)
        if selection.window_perms
        else np.zeros((0, 0), dtype=np.int64)
    )
    np.savez_compressed(
        path,
        format=np.int64(SELECTION_FORMAT),
        method=np.bytes_(selection.method.encode()),
        k=np.int64(selection.k),
        window_perms=perms,
        variable_ids=variable_ids,
        clusters=clusters,
        elapsed_seconds=np.float64(selection.elapsed_seconds),
        details=np.bytes_(json.dumps(selection.details).encode()),
    )
    return path if path.suffix == ".npz" else path.with_suffix(".npz")


def load_selection(path: str | Path) -> MappingSelection:
    """Read a selection written by :func:`save_selection`."""
    with np.load(Path(path)) as archive:
        if int(archive["format"]) != SELECTION_FORMAT:
            raise ProfilingError("unsupported selection file format")
        perms = archive["window_perms"]
        return MappingSelection(
            method=bytes(archive["method"]).decode(),
            k=int(archive["k"]),
            window_perms=[perms[i] for i in range(perms.shape[0])],
            variable_cluster={
                int(v): int(c)
                for v, c in zip(archive["variable_ids"], archive["clusters"])
            },
            elapsed_seconds=float(archive["elapsed_seconds"]),
            details=json.loads(bytes(archive["details"]).decode()),
        )


def load_profile(path: str | Path) -> WorkloadProfile:
    """Read a profile written by :func:`save_profile`."""
    with np.load(Path(path)) as archive:
        if int(archive["format"]) != PROFILE_FORMAT:
            raise ProfilingError("unsupported profile file format")
        count = int(archive["count"])
        profiles = [
            VariableProfile(
                variable_id=int(archive[f"v{index}_id"]),
                name=bytes(archive[f"v{index}_name"]).decode(),
                size_bytes=int(archive[f"v{index}_size"]),
                references=int(archive[f"v{index}_refs"]),
                addresses=archive[f"v{index}_addresses"],
            )
            for index in range(count)
        ]
        return WorkloadProfile(
            name=bytes(archive["name"]).decode(),
            profiles=profiles,
            total_references=int(archive["total_references"]),
        )


_TMP_IDS = itertools.count()
"""Per-process tmp-file serial: makes concurrent same-key writes from
threads of one process collide-free (the PID alone is not unique)."""


def _digest_path(path: Path) -> Path:
    """The checksum sidecar path for a blob."""
    return path.with_name(path.name + ".sha256")


def _file_digest(path: Path) -> str:
    """Hex sha256 of a file's bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _save_json(path: Path, value: dict) -> None:
    path.write_text(json.dumps(value))


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text())


class StageStore:
    """Content-addressed, process-safe stage-output store.

    Each stage output lives in ``root/<kind>/<key>.<ext>`` where
    ``key`` is the content hash of everything that determines the
    output (see :mod:`repro.system.runner`).  Identical stages are
    therefore computed once and shared across systems, sweeps and
    process restarts; changing any input yields a new key, so stale
    entries are never *read* (invalidation is by construction — old
    keys simply stop being referenced).

    Writes go through a per-call temporary file and an atomic
    ``os.replace``, so concurrent writers racing on the same key are
    harmless: one rename wins (a blob and a sidecar from two writers
    that disagree cost one recomputation).  Every blob gets a
    ``.sha256`` sidecar, published after the blob.  A load whose blob or sidecar is
    missing, whose checksum does not match, or whose decoder fails is
    a miss; the caller recomputes the stage and republishes the entry.
    """

    # kind -> (extension, writer, reader)
    _CODECS = {
        "profile": ("npz", save_profile, load_profile),
        "selection": ("npz", save_selection, load_selection),
        "result": ("json", _save_json, _load_json),
    }

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, kind: str, key: str) -> Path:
        if kind not in self._CODECS:
            raise ProfilingError(f"unknown stage kind {kind!r}")
        return self.root / kind / f"{key}.{self._CODECS[kind][0]}"

    def load(self, kind: str, key: str):
        """The ``kind`` entry (``"profile"``, ``"selection"`` or
        ``"result"``) under a key, or None on a miss."""
        path = self._path(kind, key)
        try:
            if _digest_path(path).read_text().strip() != _file_digest(path):
                return None
            return self._CODECS[kind][2](path)
        except Exception:  # noqa: BLE001 — an unreadable entry is a miss
            return None

    def store(self, kind: str, key: str, value) -> None:
        """Publish an entry (blob, then its sidecar) under a key."""
        target = self._path(kind, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Keep the real extension so the npz writers don't append one;
        # the serial keeps same-key writes from one process distinct.
        tmp = target.parent / (
            f".tmp-{os.getpid()}-{next(_TMP_IDS)}-{target.name}"
        )
        digest_tmp = _digest_path(tmp)
        try:
            self._CODECS[kind][1](tmp, value)
            digest_tmp.write_text(_file_digest(tmp) + "\n")
            os.replace(tmp, target)
            os.replace(digest_tmp, _digest_path(target))
        finally:
            tmp.unlink(missing_ok=True)
            digest_tmp.unlink(missing_ok=True)
