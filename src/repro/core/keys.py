"""Stable content hashing for campaign checkpoint keys and fingerprints.

A campaign checkpoint is keyed by a content hash of everything that
determines the campaign: the workload spec, the system configuration,
the device geometry and the seeds.  Keys must be stable across
processes and Python releases, so hashing goes through a canonical JSON
form rather than ``pickle`` or ``hash()`` (both of which vary between
runs).

``canonical`` understands the value vocabulary the configuration
objects are built from: scalars, strings, tuples/lists, dicts,
(frozen) dataclasses, numpy scalars and arrays, and any object
exposing a ``spec_dict()`` method (the workload protocol).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

from repro.errors import ConfigError

__all__ = ["canonical", "canonical_json", "stable_hash"]


def canonical(value: Any) -> Any:
    """Reduce a value to JSON-serialisable form, deterministically."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly and is stable across builds.
        return {"__float__": repr(value)}
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value, key=str):
            out[str(key)] = canonical(value[key])
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    spec_dict = getattr(value, "spec_dict", None)
    if callable(spec_dict):
        return canonical(spec_dict())
    raise ConfigError(
        f"cannot build a stable key from {type(value).__name__!r}"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a value (sorted keys, no whitespace)."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def stable_hash(*parts: Any) -> str:
    """A hex sha256 digest over the canonical form of the parts."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(canonical_json(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()
