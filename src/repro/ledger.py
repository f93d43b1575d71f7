"""Records and ledgers: reports that serialise from their declarations.

A record is a dataclass whose JSON form follows from its fields:
:class:`Record` derives :meth:`~Record.to_dict`,
:meth:`~Record.from_dict`, :meth:`~Record.fingerprint` and
:meth:`~Record.to_json` from them.  The campaign reports
(:class:`~repro.ras.campaign.CampaignResult`,
:class:`~repro.online.campaign.AdaptiveCampaignResult`,
:class:`~repro.tier.campaign.TierCampaignResult`), the sweep results
and the ledgers below are records.  Two markers, given as
``field(metadata=...)``, change how a field appears:

* ``PROVENANCE`` — how the run was executed, not what it computed
  (wall-clock seconds, ``resumed``): :meth:`Record.fingerprint` resets
  it to its default.
* ``OMIT`` — not part of the report (the threshold a CLI gate judges
  the run against): :meth:`Record.to_dict` leaves it out.

``derived`` names properties :meth:`Record.to_dict` appends after the
fields.  ``to_dict`` copies containers (a tuple becomes a list) and
turns a nested record into its own dict, but keeps every leaf value as
it is; an array becomes a list of its declared dtype.

A ledger is a record of counters that runs, jobs and tenants fold
together: :class:`~repro.hbm.stats.RunStats`,
:class:`~repro.hbm.stats.RemapTraffic`,
:class:`~repro.tier.stats.TierTraffic` and
:class:`~repro.system.runner.StageMetrics`.  Each field declares how it
merges in ``field(metadata=...)``; :class:`Ledger` derives the merge
from those declarations:

* ``SUM`` — counters and ``*_ns`` totals add; arrays declared with
  :func:`summed_array` add elementwise.
* ``MAX`` — the larger value wins (``makespan_ns``).
* :func:`key` — both operands must agree, else ``ValueError``.

The laws (DESIGN §2, "Records and ledgers"): :meth:`Ledger.empty` is a
two-sided identity and :meth:`Ledger.merge` is associative and
commutative.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import MISSING, Field, fields
from typing import Any, ClassVar, Iterable

import numpy as np

__all__ = [
    "Ledger",
    "MAX",
    "OMIT",
    "PROVENANCE",
    "Record",
    "SUM",
    "key",
    "summed_array",
]

PROVENANCE = {"record": "provenance"}
OMIT = {"record": "omit"}
SUM = {"merge": "sum"}
MAX = {"merge": "max"}


def key(what: str) -> dict:
    """A field both operands must share; ``what`` names it in the error."""
    return {"merge": "key", "what": what}


def summed_array(dtype, length: str) -> dict:
    """An array that adds elementwise; its identity is zeros of ``dtype``
    as long as the value of the key field ``length``."""
    return {"merge": "sum", "dtype": np.dtype(dtype), "length": length}


_MERGES = {
    "sum": lambda a, b: a + b,
    "max": max,
}


def _coercer(hint, metadata):
    """How :meth:`Record.from_dict` turns a JSON value into a field
    value: arrays by their declared dtype, records by their own
    ``from_dict``, list items and dict values by their annotation,
    other classes by calling them; anything else (a union) as it is."""
    if hint is np.ndarray:
        return lambda value: np.asarray(value, dtype=metadata["dtype"])
    origin = typing.get_origin(hint)
    if origin is list:
        item = _coercer(typing.get_args(hint)[0], metadata)
        return lambda value: [item(v) for v in value]
    if origin is dict:
        item = _coercer(typing.get_args(hint)[1], metadata)
        return lambda value: {k: item(v) for k, v in value.items()}
    if isinstance(hint, type):
        return getattr(hint, "from_dict", hint)
    return lambda value: value


@functools.cache
def _schema(cls) -> tuple[tuple[Field, Any, str | None], ...]:
    """Each field of ``cls`` with its :func:`_coercer` and its marker
    (``"provenance"``, ``"omit"`` or None), in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f, _coercer(hints[f.name], f.metadata), f.metadata.get("record"))
        for f in fields(cls)
    )


def _default(f: Field):
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


#: Leaf types :func:`_plain` returns first, without the container checks.
_SCALARS = (int, float, str, type(None))


def _plain(value, metadata, fingerprint: bool):
    """A JSON-ready copy of one value (see the module docstring)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, np.ndarray):
        return value.astype(metadata["dtype"], copy=False).tolist()
    if isinstance(value, Record):
        return value.fingerprint() if fingerprint else value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v, metadata, fingerprint) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, metadata, fingerprint) for v in value]
    return value


class Record:
    """Base for dataclass reports that serialise from their fields.

    ``derived`` names properties :meth:`to_dict` appends after the
    fields.  A field marked ``PROVENANCE`` must have a default.
    """

    derived: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        """Fields in declaration order (``OMIT`` ones left out), then
        the ``derived`` properties."""
        return self._dump(False)

    def fingerprint(self) -> dict:
        """:meth:`to_dict` with every ``PROVENANCE`` field at its
        default and nested records by their own fingerprint.

        Two runs that computed the same thing are equal on it however
        they were executed: timed, or interrupted and resumed.
        """
        return self._dump(True)

    def _dump(self, fingerprint: bool) -> dict:
        data = {}
        for f, _, marker in _schema(type(self)):
            if marker == "omit":
                continue
            if fingerprint and marker == "provenance":
                value = _default(f)
            else:
                value = getattr(self, f.name)
            data[f.name] = _plain(value, f.metadata, fingerprint)
        for name in self.derived:
            data[name] = _plain(getattr(self, name), {}, fingerprint)
        return data

    def to_json(self, **json_kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        import json

        return json.dumps(self.to_dict(), **json_kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> Record:
        """Rebuild a record from :meth:`to_dict` output.

        Values are coerced by field annotation, missing keys take the
        field's default, and unknown keys (derived properties, fields
        older formats carried) are ignored.
        """
        return cls(
            **{
                f.name: coerce(data[f.name])
                for f, coerce, _ in _schema(cls)
                if f.name in data
            }
        )


class Ledger(Record):
    """Base for dataclass ledgers whose fields declare their merge kind.

    Subclasses are ``@dataclass(eq=False)`` so the value
    :meth:`__eq__` here, which compares arrays by content, is the one
    in force.
    """

    @classmethod
    def empty(cls, *args, **keys) -> Ledger:
        """The merge identity.

        Key fields are given by keyword or, in declaration order,
        positionally (``RunStats.empty(32)``); any other field may be
        overridden by keyword.
        """
        key_names = [
            f.name for f, _, _ in _schema(cls) if f.metadata["merge"] == "key"
        ]
        keys.update(zip(key_names, args))
        values = {}
        for f, coerce, _ in _schema(cls):
            has_default = (
                f.default is not MISSING or f.default_factory is not MISSING
            )
            if f.name in keys or f.name in key_names or has_default:
                continue
            if "length" in f.metadata:
                values[f.name] = np.zeros(
                    keys[f.metadata["length"]], dtype=f.metadata["dtype"]
                )
            else:
                values[f.name] = coerce(0)
        return cls(**values, **keys)

    def merge(self, other: Ledger) -> Ledger:
        """Combine two ledgers field by field, as each field declares."""
        values = {}
        for f, _, _ in _schema(type(self)):
            a, b = getattr(self, f.name), getattr(other, f.name)
            kind = f.metadata["merge"]
            if kind == "key":
                if a != b:
                    raise ValueError(
                        f"cannot merge {type(self).__name__} with different "
                        f"{f.metadata['what']}: {a} != {b}"
                    )
                values[f.name] = a
            else:
                values[f.name] = _MERGES[kind](a, b)
        return type(self)(**values)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.merge(other)

    @classmethod
    def fold(cls, parts: Iterable[Ledger | None]) -> Ledger | None:
        """Merge ``parts`` left to right, skipping ``None``; ``None`` if
        nothing is left."""
        present = [p for p in parts if p is not None]
        return functools.reduce(cls.merge, present) if present else None

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f, _, _ in _schema(type(self)):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True
