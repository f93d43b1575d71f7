"""Named sites for deterministic fault injection.

The ``device.*`` sites of :mod:`repro.faults.sites` name the
modeled-hardware failures — stuck rows, dead banks, lost channels, CMT
bit flips, AMU misprogramming — that :class:`repro.ras.DeviceFaultPlan`
injects.
"""

from repro.faults.sites import DEVICE_SITES, matches_known_site

__all__ = ["DEVICE_SITES", "matches_known_site"]
