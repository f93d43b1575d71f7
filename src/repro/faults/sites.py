"""Named fault-injection sites.

A *fault site* is a stable string naming one modeled-hardware failure,
injected through a :class:`~repro.ras.faults.DeviceFaultPlan` at
access-count trigger points:

``device.hbm.row`` / ``device.hbm.bank`` / ``device.hbm.channel``
    A stuck DRAM row, a dead bank, a lost channel.  Accesses landing on
    the failed region return ECC errors; writes are dropped.

``device.cmt.flip``
    An SRAM bit upset in the CMT: either a first-level chunk entry
    (chunk silently rebinds to another — or an unknown — mapping) or a
    second-level configuration lane (the stored permutation corrupts).

``device.amu.misprogram``
    The AMU crossbar applies a *valid but wrong* permutation for one
    mapping index while the CMT SRAM stays correct — the failure a
    shadow compare cannot see and only translation spot checks catch.

Site patterns are ``fnmatch`` globs, so ``device.hbm.*`` covers a
family; :func:`matches_known_site` tells whether a pattern can ever
fire.
"""

from __future__ import annotations

from fnmatch import fnmatch

__all__ = [
    "DEVICE_AMU_MISPROGRAM",
    "DEVICE_CMT_FLIP",
    "DEVICE_HBM_BANK",
    "DEVICE_HBM_CHANNEL",
    "DEVICE_HBM_ROW",
    "DEVICE_SITES",
    "matches_known_site",
]

DEVICE_HBM_ROW = "device.hbm.row"
DEVICE_HBM_BANK = "device.hbm.bank"
DEVICE_HBM_CHANNEL = "device.hbm.channel"
DEVICE_CMT_FLIP = "device.cmt.flip"
DEVICE_AMU_MISPROGRAM = "device.amu.misprogram"

#: Modeled-hardware sites the RAS DeviceFaultPlan can act on.
DEVICE_SITES = (
    DEVICE_HBM_ROW,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_CMT_FLIP,
    DEVICE_AMU_MISPROGRAM,
)


def matches_known_site(pattern: str) -> bool:
    """Whether a site pattern can ever match a real injection point."""
    return any(fnmatch(site, pattern) for site in DEVICE_SITES)
