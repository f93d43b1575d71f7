"""Tier traffic accounting: what the fast/slow split cost and saved.

:class:`TierTraffic` is a ledger (:mod:`repro.ledger`, DESIGN §2 "Run
ledgers"): every counter adds, so traffic from independent campaign
legs or sequential runs folds together in any order.  Like
:class:`~repro.hbm.stats.BackendHealth` it is deliberately *not* part of
the frozen, cache-fingerprinted :class:`~repro.hbm.stats.RunStats`: tier
traffic describes how the tiered backend obtained a result, never what
the result is, so a tiered run whose fast tier covers the whole
footprint fingerprints bit-identically to its delegate backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ledger import SUM, Ledger

__all__ = ["TierTraffic"]


@dataclass(eq=False)
class TierTraffic(Ledger):
    """Counters for one tiered run (or a merge of several)."""

    derived = ("fast_fraction", "overhead_ns")

    fast_accesses: int = field(default=0, metadata=SUM)
    slow_accesses: int = field(default=0, metadata=SUM)
    promotions: int = field(default=0, metadata=SUM)
    demotions: int = field(default=0, metadata=SUM)
    retired_pins: int = field(default=0, metadata=SUM)
    swap_waves: int = field(default=0, metadata=SUM)
    swap_bytes: int = field(default=0, metadata=SUM)
    swap_ns: float = field(default=0.0, metadata=SUM)
    trans_lookups: int = field(default=0, metadata=SUM)
    trans_hits: int = field(default=0, metadata=SUM)
    trans_misses: int = field(default=0, metadata=SUM)
    trans_ns: float = field(default=0.0, metadata=SUM)
    slow_busy_ns: float = field(default=0.0, metadata=SUM)
    sdam_remaps: int = field(default=0, metadata=SUM)
    sdam_rollbacks: int = field(default=0, metadata=SUM)

    @property
    def accesses(self) -> int:
        """All accesses the tiered datapath served."""
        return self.fast_accesses + self.slow_accesses

    @property
    def fast_fraction(self) -> float:
        """Share of accesses the fast tier absorbed."""
        total = self.accesses
        return self.fast_accesses / total if total else 0.0

    @property
    def swaps(self) -> int:
        """Pages moved between tiers (either direction)."""
        return self.promotions + self.demotions

    @property
    def trans_hit_rate(self) -> float:
        """Translation-cache hits over lookups."""
        if self.trans_lookups == 0:
            return 0.0
        return self.trans_hits / self.trans_lookups

    @property
    def overhead_ns(self) -> float:
        """Simulated time the tier machinery itself cost."""
        return self.swap_ns + self.trans_ns

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.accesses} accesses "
            f"({self.fast_fraction:.0%} fast), "
            f"{self.promotions}+{self.demotions} swaps "
            f"({self.swap_ns / 1e3:.1f} us), "
            f"trans hit-rate {self.trans_hit_rate:.2f}"
        )
