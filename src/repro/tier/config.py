"""Configuration for the tiered (fast HBM + slow DDR/CXL) backend.

The slow tier is a deliberately simple latency/bandwidth model, not a
second bank-level simulator: a per-line access latency served over a
small number of independent channels (a CXL-attached DDR expander is
latency-dominated, so row-buffer structure adds little).  METICULOUS
(PAPERS.md) emulates heterogeneous tiers the same way — a flat latency
adder over the fast device.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from repro.errors import ConfigError

__all__ = ["SlowTierConfig", "TierConfig"]


def _count(name: str, value) -> int:
    """``value`` as an ``int`` (numpy integers pass).

    A bool or a non-integral value raises
    :class:`~repro.errors.ConfigError`: the tiered backend sizes pages,
    waves, budgets and arrays from these counts.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class SlowTierConfig:
    """Latency/bandwidth model of the slow (DDR/CXL-like) tier."""

    name: str = "cxl-ddr"
    t_access_ns: float = 120.0
    """Per-line service latency (CXL round-trip + DDR access)."""
    channels: int = 2
    """Independent channels the slow tier serves lines over."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", _count("channels", self.channels))
        if self.t_access_ns <= 0:
            raise ConfigError("t_access_ns must be positive")
        if self.channels <= 0:
            raise ConfigError("slow tier needs at least one channel")

    def service_ns(self, accesses: int) -> float:
        """Makespan of ``accesses`` line transfers (bandwidth-bound)."""
        if accesses <= 0:
            return 0.0
        return accesses * self.t_access_ns / self.channels


@dataclass(frozen=True)
class TierConfig:
    """Knobs of the tiered backend's placement machinery.

    ``fast_pages=None`` disables the slow tier (unbounded fast
    capacity): the backend then degenerates to its delegate and must be
    bit-identical to it — the acceptance property the calibration tests
    assert.
    """

    fast_pages: int | None = None
    """Fast-tier capacity in pages (None = unbounded, slow disabled)."""
    page_bits: int = 12
    """Placement granularity (4 KiB pages by default)."""
    wave_accesses: int = 4096
    """Accesses per swap wave: the policy observes and plans per wave."""
    swap_budget: int = 32
    """Maximum promotions per wave (each may force a demotion)."""
    trans_cache_pages: int = 64
    """Capacity of the tier translation cache (non-resident pages)."""
    trans_miss_ns: float = 50.0
    """Charge per translation-cache miss (page-table walk)."""
    slow: SlowTierConfig = SlowTierConfig()

    def __post_init__(self) -> None:
        counts = ("page_bits", "wave_accesses", "swap_budget",
                  "trans_cache_pages")
        if self.fast_pages is not None:
            counts = ("fast_pages", *counts)
        for name in counts:
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.fast_pages is not None and self.fast_pages < 0:
            raise ConfigError("fast_pages must be >= 0 (or None)")
        if self.page_bits < 6:
            raise ConfigError("page_bits must cover at least a cache line")
        if self.wave_accesses < 1:
            raise ConfigError("wave_accesses must be >= 1")
        if self.swap_budget < 0:
            raise ConfigError("swap_budget must be >= 0")
        if self.trans_cache_pages < 0:
            raise ConfigError("trans_cache_pages must be >= 0")
        if self.trans_miss_ns < 0:
            raise ConfigError("trans_miss_ns must be >= 0")

    @property
    def page_bytes(self) -> int:
        """Placement granularity in bytes."""
        return 1 << self.page_bits
