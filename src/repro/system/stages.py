"""The suite-wide mix profile of the global ``BS+BSM`` policy."""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import AccessTrace
from repro.profiling.profiler import WorkloadProfile, profile_trace
from repro.profiling.variables import VariableRegistry

__all__ = ["build_mix_profile"]


def build_mix_profile(profiles: list[WorkloadProfile]) -> WorkloadProfile:
    """Combine per-workload profiles into the suite-wide mix profile.

    The global ``BS+BSM`` policy selects one mapping from the combined
    profile of every workload in the suite (Section 7.3); this reuses
    the per-workload profiles instead of re-profiling.  The mix of one
    profile selects the same mapping as that profile itself, and a mix
    with no addresses is empty (``Machine`` then keeps the identity
    mapping).
    """
    addresses = [p.addresses for profile in profiles for p in profile.profiles]
    if not addresses:
        return WorkloadProfile(name="suite-mix", profiles=[], total_references=0)
    registry = VariableRegistry()
    registry.record_allocation("mix", 0, 1 << 40)
    trace = AccessTrace(va=np.concatenate(addresses))
    return profile_trace(trace, registry, name="suite-mix", use_tags=False)
