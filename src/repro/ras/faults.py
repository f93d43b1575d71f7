"""Device fault sites and specifications: what breaks, where, and when.

A *fault site* is a stable string naming one modeled-hardware failure:

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

A :class:`DeviceFaultSpec` pins one site to concrete coordinates
(channel/bank/row, CMT word, mapping index) and an access-count trigger
point.  A :class:`DeviceFaultPlan` is consumed by
:class:`~repro.ras.campaign.RASMachine`, which injects each spec exactly
once when the machine's cumulative access counter passes the trigger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceFaultError
from repro.ledger import Record

__all__ = [
    "DEVICE_AMU_MISPROGRAM",
    "DEVICE_CMT_FLIP",
    "DEVICE_HBM_BANK",
    "DEVICE_HBM_CHANNEL",
    "DEVICE_HBM_ROW",
    "DEVICE_SITES",
    "DeviceFaultPlan",
    "DeviceFaultSpec",
]

DEVICE_HBM_ROW = "device.hbm.row"
DEVICE_HBM_BANK = "device.hbm.bank"
DEVICE_HBM_CHANNEL = "device.hbm.channel"
DEVICE_CMT_FLIP = "device.cmt.flip"
DEVICE_AMU_MISPROGRAM = "device.amu.misprogram"

#: Modeled-hardware sites a DeviceFaultPlan can act on.
DEVICE_SITES = (
    DEVICE_HBM_ROW,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_CMT_FLIP,
    DEVICE_AMU_MISPROGRAM,
)

#: Sites describing physical (channel/bank/row) damage.
PHYSICAL_SITES = (DEVICE_HBM_ROW, DEVICE_HBM_BANK, DEVICE_HBM_CHANNEL)


@dataclass(frozen=True)
class DeviceFaultSpec(Record):
    """One modeled-hardware fault, armed at an access-count trigger.

    Coordinate fields are site-specific: ``channel``/``bank``/``row``
    for the ``device.hbm.*`` family, ``chunk_no`` or ``mapping_index``
    (+ ``lane``/``bit``) for ``device.cmt.flip``, ``mapping_index`` for
    ``device.amu.misprogram``.
    """

    site: str
    trigger_access: int = 0
    channel: int | None = None
    bank: int | None = None
    row: int | None = None
    chunk_no: int | None = None
    mapping_index: int | None = None
    lane: int = 0
    bit: int = 0

    def __post_init__(self) -> None:
        if self.site not in DEVICE_SITES:
            raise DeviceFaultError(
                f"unknown device fault site {self.site!r}; known sites: "
                f"{', '.join(DEVICE_SITES)}"
            )
        if self.trigger_access < 0:
            raise DeviceFaultError("trigger_access must be >= 0")
        needs = {
            DEVICE_HBM_ROW: ("channel", "bank", "row"),
            DEVICE_HBM_BANK: ("channel", "bank"),
            DEVICE_HBM_CHANNEL: ("channel",),
            DEVICE_AMU_MISPROGRAM: ("mapping_index",),
        }.get(self.site, ())
        for name in needs:
            if getattr(self, name) is None:
                raise DeviceFaultError(
                    f"{self.site} fault needs a {name!r} coordinate"
                )
        if self.site == DEVICE_CMT_FLIP:
            if self.chunk_no is None and self.mapping_index is None:
                raise DeviceFaultError(
                    f"{DEVICE_CMT_FLIP} needs chunk_no (first-level entry) "
                    "or mapping_index (second-level config)"
                )

    @property
    def kind(self) -> str:
        """Short classifier: row, bank, channel, cmt, amu."""
        return self.site.rsplit(".", 1)[-1] if self.site.startswith(
            "device.hbm."
        ) else ("cmt" if self.site == DEVICE_CMT_FLIP else "amu")

    @property
    def is_physical(self) -> bool:
        """True for channel/bank/row damage (vs control-state upsets)."""
        return self.site in PHYSICAL_SITES

    def describe(self) -> str:
        """One-line human-readable description."""
        where = {
            DEVICE_HBM_ROW: f"ch{self.channel} bank{self.bank} row{self.row}",
            DEVICE_HBM_BANK: f"ch{self.channel} bank{self.bank}",
            DEVICE_HBM_CHANNEL: f"ch{self.channel}",
            DEVICE_CMT_FLIP: (
                f"entry[{self.chunk_no}] bit {self.bit}"
                if self.chunk_no is not None
                else f"config[{self.mapping_index}] lane {self.lane} "
                f"bit {self.bit}"
            ),
            DEVICE_AMU_MISPROGRAM: f"mapping {self.mapping_index}",
        }[self.site]
        return f"{self.site} @ {where} after {self.trigger_access} accesses"


class DeviceFaultPlan:
    """An ordered set of device faults with trigger bookkeeping.

    The RAS campaign builds it from the populated device state; the plan
    is pure data plus "has this spec fired yet" tracking; the
    machine calls :meth:`pop_due` with its cumulative access count and
    injects whatever comes back.
    """

    def __init__(self, specs):
        self.specs: list[DeviceFaultSpec] = list(specs)
        self._fired: set[int] = set()

    def __len__(self) -> int:
        return len(self.specs)

    def pop_due(self, accesses: int) -> list[DeviceFaultSpec]:
        """Specs whose trigger has passed and that have not fired yet."""
        due = []
        for index, spec in enumerate(self.specs):
            if index in self._fired or spec.trigger_access > accesses:
                continue
            self._fired.add(index)
            due.append(spec)
        return due

    @property
    def pending(self) -> int:
        """Specs that have not fired yet."""
        return len(self.specs) - len(self._fired)
