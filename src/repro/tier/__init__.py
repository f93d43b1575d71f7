"""Tiered heterogeneous memory: HBM fast tier + configurable slow tier.

The package behind the ``"tiered"`` entry in the memory-backend
table: page-granular placement between a fast HBM tier (timing
delegated to the fast/vector backends) and a latency/bandwidth-modeled
slow tier, with pluggable swap policies driven by the online BFRV and
activity signals, and RAS-retired pages pinned to the slow tier.  The
campaign (:func:`run_tier_campaign`, behind ``python -m repro tier``)
also remaps a live chunk mid-swap through
:meth:`~repro.mem.migration.ChunkMigrator.migrate_chunk` and checks the
CMT rolls back on a mid-copy fault.
"""

from repro.lazy import lazy_exports
from repro.tier.backend import TieredBackend
from repro.tier.config import SlowTierConfig, TierConfig
from repro.tier.placement import TierPlacement
from repro.tier.policies import (
    FastSwap,
    SlowSwap,
    SmartSwap,
    SwapPolicy,
    available_policies,
    create_policy,
)
from repro.tier.stats import TierTraffic

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "TierCampaignResult": ("repro.tier.campaign", "TierCampaignResult"),
        "run_tier_campaign": ("repro.tier.campaign", "run_tier_campaign"),
    },
)

__all__ = [
    "FastSwap",
    "SlowSwap",
    "SlowTierConfig",
    "SmartSwap",
    "SwapPolicy",
    "TierCampaignResult",
    "TierConfig",
    "TierPlacement",
    "TierTraffic",
    "TieredBackend",
    "available_policies",
    "create_policy",
    "run_tier_campaign",
]
