"""Deterministic fault injection for resilience testing.

Three site families share the namespace of :mod:`repro.faults.sites`:

* the experiment engine's failure paths — corrupt cache entries,
  crashing workers, stalled cells, broken process pools — exercised
  through :class:`FaultPlan` (see :mod:`repro.faults.plan`);
* modeled-hardware failures — stuck rows, dead banks, lost channels,
  CMT bit flips, AMU misprogramming — exercised through the
  ``device.*`` family and :class:`repro.ras.DeviceFaultPlan`;
* guarded backend execution — forced cross-tier divergence —
  exercised through the ``backend.*`` family, fired by the same
  :class:`FaultPlan` inside the divergence guard.
"""

from repro.faults.plan import ENV_VAR, FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.sites import (
    BACKEND_SITES,
    DEVICE_SITES,
    ENGINE_SITES,
    KNOWN_SITES,
    matches_known_site,
)

__all__ = [
    "BACKEND_SITES",
    "DEVICE_SITES",
    "ENGINE_SITES",
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "KNOWN_SITES",
    "matches_known_site",
]
