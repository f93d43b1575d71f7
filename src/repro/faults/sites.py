"""Named fault-injection sites.

A *fault site* is a stable string naming one place where fault machinery
may act.  Sites come in three *families* with different injectors:

**Engine sites** — checked by the experiment engine, injected through a
:class:`~repro.faults.plan.FaultPlan`:

``store.load.<kind>``
    Checked by :class:`~repro.system.tracefile.StageStore` just before
    reading a cached entry; the token is the entry's cache key.  The
    only useful fault kind here is ``corrupt`` (garble the blob on
    disk so the checksum/decode path must heal it).

``worker.<stage>``
    Checked at the start of each compute stage, whether it runs in a
    worker process or inline.  The token is ``"<workload>:<system>"``
    for cell stages and the bare workload name for the shared
    profiling phase.  Useful kinds: ``raise`` (simulated crash),
    ``stall`` (sleep past the cell timeout) and ``break-pool``
    (``os._exit`` the worker so the whole pool breaks).

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
backends, injected through the same :class:`~repro.faults.plan.
FaultPlan` as engine sites (they share its deterministic firing
machinery).  Unlike engine sites, where the spec's *kind* chooses the
effect, a backend site *names* its effect:

``backend.divergence``
    The divergence guard's sampled primary-tier result is perturbed,
    forcing a cross-tier mismatch; the token is ``chunk<index>``.
    Recovery: the run demotes primary → reference with a structured
    report.

Site patterns in a :class:`FaultSpec` are ``fnmatch`` globs, so
``store.load.*`` or ``device.hbm.*`` cover a family.  Each injector
validates patterns against *its* family, so a spec that could never
fire (e.g. a ``device.*`` pattern handed to the engine's ``FaultPlan``)
fails fast at construction instead of silently never firing.
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
    "ENGINE_SITES",
    "KNOWN_SITES",
    "STORE_LOAD_PROFILE",
    "STORE_LOAD_RESULT",
    "STORE_LOAD_SELECTION",
    "STORE_LOAD_SWEEP",
    "STORE_LOAD_TRACE",
    "WORKER_EVALUATE",
    "WORKER_PROFILE",
    "WORKER_SELECTION",
    "matches_known_site",
]

STORE_LOAD_TRACE = "store.load.trace"
STORE_LOAD_PROFILE = "store.load.profile"
STORE_LOAD_SELECTION = "store.load.selection"
STORE_LOAD_RESULT = "store.load.result"
STORE_LOAD_SWEEP = "store.load.sweep"
WORKER_PROFILE = "worker.profile"
WORKER_SELECTION = "worker.selection"
WORKER_EVALUATE = "worker.evaluate"

DEVICE_HBM_ROW = "device.hbm.row"
DEVICE_HBM_BANK = "device.hbm.bank"
DEVICE_HBM_CHANNEL = "device.hbm.channel"
DEVICE_CMT_FLIP = "device.cmt.flip"
DEVICE_AMU_MISPROGRAM = "device.amu.misprogram"

BACKEND_DIVERGENCE = "backend.divergence"

#: Sites the experiment engine's FaultPlan can act on.
ENGINE_SITES = (
    STORE_LOAD_TRACE,
    STORE_LOAD_PROFILE,
    STORE_LOAD_SELECTION,
    STORE_LOAD_RESULT,
    STORE_LOAD_SWEEP,
    WORKER_PROFILE,
    WORKER_SELECTION,
    WORKER_EVALUATE,
)

#: Modeled-hardware sites the RAS DeviceFaultPlan can act on.
DEVICE_SITES = (
    DEVICE_HBM_ROW,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_CMT_FLIP,
    DEVICE_AMU_MISPROGRAM,
)

#: Guarded-execution sites inside the memory backends, checked by the
#: cross-tier divergence guard.  They fire through the engine
#: :class:`~repro.faults.plan.FaultPlan`.
BACKEND_SITES = (BACKEND_DIVERGENCE,)

KNOWN_SITES = ENGINE_SITES + DEVICE_SITES + BACKEND_SITES

_FAMILIES = {
    None: KNOWN_SITES,
    "engine": ENGINE_SITES,
    "device": DEVICE_SITES,
    "backend": BACKEND_SITES,
}


def matches_known_site(pattern: str, family: str | None = None) -> bool:
    """Whether a site pattern can ever match a real injection point.

    ``family`` restricts the check to one injector's sites
    (``"engine"`` or ``"device"``); the default spans both families.
    """
    return any(fnmatch(site, pattern) for site in _FAMILIES[family])
