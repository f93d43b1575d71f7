"""One declarative base for the run ledgers.

A ledger is a dataclass of counters that runs, jobs and tenants fold
together: :class:`~repro.hbm.stats.RunStats`,
:class:`~repro.hbm.stats.RemapTraffic`,
:class:`~repro.tier.stats.TierTraffic` and
:class:`~repro.system.runner.StageMetrics`.  Each field declares how it
merges in ``field(metadata=...)``; :class:`Ledger` derives the rest from
those declarations:

* ``SUM`` — counters and ``*_ns`` totals add; arrays declared with
  :func:`summed_array` add elementwise.
* ``MAX`` — the larger value wins (``makespan_ns``).
* :func:`key` — both operands must agree, else ``ValueError``.

The laws (DESIGN §2, "Run ledgers"): :meth:`Ledger.empty` is a
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
    "SUM",
    "key",
    "summed_array",
]

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
    """How :meth:`Ledger.from_dict` turns a JSON value into a field value:
    arrays by their declared dtype, scalars by their annotation."""
    if hint is np.ndarray:
        return lambda value: np.asarray(value, dtype=metadata["dtype"])
    return hint


@functools.cache
def _schema(cls) -> tuple[tuple[Field, Any], ...]:
    """Each field of ``cls`` with its :func:`_coercer`, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f, _coercer(hints[f.name], f.metadata)) for f in fields(cls)
    )


def _plain(value, metadata):
    """A JSON-serialisable copy of one field value."""
    if isinstance(value, np.ndarray):
        return value.astype(metadata["dtype"], copy=False).tolist()
    return value


class Ledger:
    """Base for dataclass ledgers whose fields declare their merge kind.

    Subclasses are ``@dataclass(eq=False)`` so the value
    :meth:`__eq__` here, which compares arrays by content, is the one
    in force.  ``derived`` names properties :meth:`to_dict` appends
    after the fields.
    """

    derived: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def empty(cls, *args, **keys) -> Ledger:
        """The merge identity.

        Key fields are given by keyword or, in declaration order,
        positionally (``RunStats.empty(32)``); any other field may be
        overridden by keyword.
        """
        key_names = [
            f.name for f, _ in _schema(cls) if f.metadata["merge"] == "key"
        ]
        keys.update(zip(key_names, args))
        values = {}
        for f, coerce in _schema(cls):
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
        for f, _ in _schema(type(self)):
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
        for f, _ in _schema(type(self)):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    def to_dict(self) -> dict:
        """Fields in declaration order, then the ``derived`` properties."""
        data = {
            f.name: _plain(getattr(self, f.name), f.metadata)
            for f in fields(self)
        }
        for name in self.derived:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> Ledger:
        """Rebuild a ledger from :meth:`to_dict` output.

        Values are coerced by field annotation, missing keys take the
        field's default, and unknown keys (derived properties, counters
        older formats carried) are ignored.
        """
        return cls(
            **{
                f.name: coerce(data[f.name])
                for f, coerce in _schema(cls)
                if f.name in data
            }
        )
