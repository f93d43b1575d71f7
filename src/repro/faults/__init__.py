"""Deterministic fault injection.

Two site families share the namespace of :mod:`repro.faults.sites`:

* modeled-hardware failures — stuck rows, dead banks, lost channels,
  CMT bit flips, AMU misprogramming — exercised through the
  ``device.*`` family and :class:`repro.ras.DeviceFaultPlan`;
* guarded backend execution — forced cross-tier divergence —
  exercised through the ``backend.*`` family and :class:`FaultPlan`
  (see :mod:`repro.faults.plan`), fired inside the divergence guard.
"""

from repro.faults.sites import (
    BACKEND_SITES,
    DEVICE_SITES,
    KNOWN_SITES,
    matches_known_site,
)
from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "FaultPlan": ("repro.faults.plan", "FaultPlan"),
        "FaultSpec": ("repro.faults.plan", "FaultSpec"),
    },
)

__all__ = [
    "BACKEND_SITES",
    "DEVICE_SITES",
    "FaultPlan",
    "FaultSpec",
    "KNOWN_SITES",
    "matches_known_site",
]
