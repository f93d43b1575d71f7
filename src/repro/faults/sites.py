"""Named fault-injection sites.

A *fault site* is a stable string naming one place where fault machinery
may act.  Sites come in two *families* with different injectors:

**Device sites** — modeled-hardware failures, injected through a
:class:`~repro.ras.faults.DeviceFaultPlan` at access-count trigger
points:

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

**Backend sites** — guarded-execution failures inside the memory
backends, injected through a :class:`~repro.faults.plan.FaultPlan`:

``backend.divergence``
    The divergence guard's sampled primary-tier result is perturbed,
    forcing a cross-tier mismatch; the token is ``chunk<index>``.
    Recovery: the run demotes primary → reference with a structured
    report.

Site patterns are ``fnmatch`` globs, so ``device.hbm.*`` covers a
family.  Each injector validates patterns against *its* family, so a
spec that could never fire (e.g. a ``device.*`` pattern handed to a
``FaultPlan``) fails fast at construction instead of silently never
firing.
"""

from __future__ import annotations

from fnmatch import fnmatch

__all__ = [
    "BACKEND_DIVERGENCE",
    "BACKEND_SITES",
    "DEVICE_AMU_MISPROGRAM",
    "DEVICE_CMT_FLIP",
    "DEVICE_HBM_BANK",
    "DEVICE_HBM_CHANNEL",
    "DEVICE_HBM_ROW",
    "DEVICE_SITES",
    "KNOWN_SITES",
    "matches_known_site",
]

DEVICE_HBM_ROW = "device.hbm.row"
DEVICE_HBM_BANK = "device.hbm.bank"
DEVICE_HBM_CHANNEL = "device.hbm.channel"
DEVICE_CMT_FLIP = "device.cmt.flip"
DEVICE_AMU_MISPROGRAM = "device.amu.misprogram"

BACKEND_DIVERGENCE = "backend.divergence"

#: Modeled-hardware sites the RAS DeviceFaultPlan can act on.
DEVICE_SITES = (
    DEVICE_HBM_ROW,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_CMT_FLIP,
    DEVICE_AMU_MISPROGRAM,
)

#: Guarded-execution sites inside the memory backends, checked by the
#: cross-tier divergence guard.  They fire through
#: :class:`~repro.faults.plan.FaultPlan`.
BACKEND_SITES = (BACKEND_DIVERGENCE,)

KNOWN_SITES = DEVICE_SITES + BACKEND_SITES

_FAMILIES = {
    None: KNOWN_SITES,
    "device": DEVICE_SITES,
    "backend": BACKEND_SITES,
}


def matches_known_site(pattern: str, family: str | None = None) -> bool:
    """Whether a site pattern can ever match a real injection point.

    ``family`` restricts the check to one injector's sites
    (``"device"`` or ``"backend"``); the default spans both families.
    """
    return any(fnmatch(site, pattern) for site in _FAMILIES[family])
