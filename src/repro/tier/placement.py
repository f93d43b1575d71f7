"""Page-granular tier placement: which tier serves which page.

The placement map is the tiered backend's single source of truth.  Its
invariants are the subsystem's conservation laws, checked by the
campaign after every swap wave and by hypothesis properties over
arbitrary operation sequences:

* **exactly one tier** — the fast and slow page sets are disjoint, and
  every admitted page is in exactly one of them;
* **capacity** — the fast set never exceeds its capacity;
* **pins** — RAS-retired pages are pinned to the slow tier (a subset of
  the slow set) and can never be promoted, so retirement falls back to
  slow capacity instead of shrinking the fast tier.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError

__all__ = ["TierPlacement", "page_array"]


def page_array(pages) -> np.ndarray:
    """A collection of page ids as an int64 array, in iteration order."""
    return np.fromiter(pages, dtype=np.int64, count=len(pages))


class TierPlacement:
    """Fast/slow page sets with conservation invariants.

    ``fast_capacity`` is the fast tier's size in pages; ``None`` means
    unbounded (the slow tier is effectively disabled and every page is
    admitted fast — the configuration under which the tiered backend
    must be bit-identical to its delegate).
    """

    def __init__(self, fast_capacity: int | None = None):
        if fast_capacity is not None and fast_capacity < 0:
            raise ConfigError("fast_capacity must be >= 0 (or None)")
        self.fast_capacity = fast_capacity
        self.fast: set[int] = set()
        self.slow: set[int] = set()
        self.pinned: set[int] = set()

    # -- queries -------------------------------------------------------------
    @property
    def known(self) -> set[int]:
        """Every page the placement has admitted."""
        return self.fast | self.slow

    @property
    def fast_free(self) -> int | None:
        """Free fast-tier pages (``None`` when capacity is unbounded)."""
        if self.fast_capacity is None:
            return None
        return self.fast_capacity - len(self.fast)

    def tier_of(self, page: int) -> str | None:
        """``"fast"``, ``"slow"``, or ``None`` for an unknown page."""
        if page in self.fast:
            return "fast"
        if page in self.slow:
            return "slow"
        return None

    def is_pinned(self, page: int) -> bool:
        """True when the page was retired into the slow tier."""
        return page in self.pinned

    # -- transitions ---------------------------------------------------------
    def admit(self, page: int) -> str:
        """Place a first-touched page: fast while space remains, else slow.

        Idempotent for known pages (returns the current tier).
        """
        tier = self.tier_of(page)
        if tier is not None:
            return tier
        if self.fast_free is None or self.fast_free > 0:
            self.fast.add(page)
            return "fast"
        self.slow.add(page)
        return "slow"

    def admit_all(self, pages: list[int]) -> None:
        """:meth:`admit` each page in order, in one pass."""
        fast, slow = self.fast, self.slow
        fresh = list(
            dict.fromkeys(p for p in pages if p not in fast and p not in slow)
        )
        room = len(fresh) if self.fast_free is None else max(self.fast_free, 0)
        fast.update(fresh[:room])
        slow.update(fresh[room:])

    def promote(self, page: int) -> None:
        """Move a slow page to the fast tier."""
        if page not in self.slow:
            raise SimulationError(f"page {page} is not in the slow tier")
        if page in self.pinned:
            raise SimulationError(
                f"page {page} is retired (pinned slow); cannot promote"
            )
        if self.fast_free is not None and self.fast_free <= 0:
            raise SimulationError(
                f"fast tier full ({self.fast_capacity} pages); "
                "demote before promoting"
            )
        self.slow.discard(page)
        self.fast.add(page)

    def demote(self, page: int) -> None:
        """Move a fast page to the slow tier."""
        if page not in self.fast:
            raise SimulationError(f"page {page} is not in the fast tier")
        self.fast.discard(page)
        self.slow.add(page)

    def pin_slow(self, page: int) -> bool:
        """Retire a page into the slow tier (RAS fallback).

        A fast page is demoted first; an unknown page is admitted
        straight to slow.  Returns True when the page was newly pinned.
        """
        if page in self.pinned:
            return False
        if page in self.fast:
            self.demote(page)
        self.slow.add(page)
        self.pinned.add(page)
        return True

    # -- invariants ----------------------------------------------------------
    def check_invariants(self, expected: set[int] | None = None) -> list[str]:
        """Every violated conservation law, as human-readable strings.

        ``expected`` (optional) is the set of pages that must be known —
        the page-conservation check the campaign runs after every swap
        wave (no page lost, none invented).
        """
        problems: list[str] = []
        overlap = self.fast & self.slow
        if overlap:
            problems.append(
                f"{len(overlap)} page(s) in both tiers "
                f"(e.g. {sorted(overlap)[:3]})"
            )
        if self.fast_capacity is not None and len(self.fast) > self.fast_capacity:
            problems.append(
                f"fast tier over capacity: {len(self.fast)} > "
                f"{self.fast_capacity}"
            )
        stray = self.pinned - self.slow
        if stray:
            problems.append(
                f"{len(stray)} pinned page(s) outside the slow tier"
            )
        if expected is not None:
            lost = expected - self.known
            invented = self.known - expected
            if lost:
                problems.append(
                    f"{len(lost)} page(s) lost (e.g. {sorted(lost)[:3]})"
                )
            if invented:
                problems.append(
                    f"{len(invented)} page(s) invented "
                    f"(e.g. {sorted(invented)[:3]})"
                )
        return problems

    def __repr__(self) -> str:
        cap = "inf" if self.fast_capacity is None else self.fast_capacity
        return (
            f"TierPlacement(fast={len(self.fast)}/{cap}, "
            f"slow={len(self.slow)}, pinned={len(self.pinned)})"
        )
