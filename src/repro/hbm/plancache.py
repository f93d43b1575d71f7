"""Shared immutable plan cache: compiled bit-programs, paid for once.

Compiled :class:`~repro.hbm.decode.DecodePlan`\\s (an address-mapping
operator precomposed with the config's field projections) are pure
functions of ``(config, operator)`` — immutable once built, safe to
share between every run in a process.  This module provides the
explicit cache that holds them: :class:`PlanCache` replaces the old
module-level ``functools.lru_cache`` in :mod:`repro.hbm.decode` with an
object that is

* **explicit** — every :class:`~repro.system.machine.Machine` run
  decodes through the process-wide :func:`default_plan_cache`, so
  compile cost is paid once per distinct mapping, not once per run;
  a caller that wants an isolated cache passes its own to
  :func:`~repro.hbm.decode.plan_for`;
* **thread-safe** — lookups and builds are serialised under one lock
  (plans compile in microseconds, so building under the lock also
  guarantees a plan is never compiled twice, whichever thread asks);
* **stats-exposing** — hits/misses/evictions are first-class, so a
  caller can *prove* the sharing happened (``stats()["hits"] > 0``)
  instead of assuming it; ``perfbench`` reads them.

Entries are evicted least-recently-used beyond ``maxsize``.  Cached
values must be treated as immutable by every consumer — the cache
hands out the same object to everyone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.errors import ConfigError

__all__ = ["PlanCache", "default_plan_cache"]

#: Default capacity: comfortably holds every live mapping of a full
#: 256-entry CMT for a couple of device configurations.
DEFAULT_MAXSIZE = 512


class PlanCache:
    """A thread-safe, stats-exposing LRU cache for immutable artifacts.

    Generic over the value type: keys are any hashable (for decode
    plans, the ``(config, operator)`` pair) and values are built by
    the ``build`` callable passed to :meth:`get`.  The cache never
    copies values — callers share one immutable object.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ConfigError("PlanCache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- the cache ----------------------------------------------------------
    def get(self, key: Hashable, build: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building it on a miss.

        ``build`` runs under the cache lock: concurrent callers asking
        for the same plan get one compile and one shared object, never
        a duplicate.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry
            self._misses += 1
            value = build()
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    # -- stats --------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that had to compile."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped to stay within ``maxsize``."""
        return self._evictions

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 before the first lookup)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """A JSON-serialisable snapshot of the cache counters."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self.hit_rate,
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache(size={len(self)}, maxsize={self.maxsize}, "
            f"hits={self._hits}, misses={self._misses})"
        )


#: The process-wide default cache, used whenever a caller does not pass
#: an explicit one (every :class:`~repro.system.machine.Machine` run).
_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide default :class:`PlanCache`."""
    return _DEFAULT_CACHE
