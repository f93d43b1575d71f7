"""Device-level RAS: inject modeled-hardware faults, detect, repair.

The ``device.*`` fault sites of :mod:`repro.ras.faults` name the
modeled-hardware failures.  A :class:`DeviceFaultPlan`, drawn by the
seeded campaign from the hardware the machine populated, injects
stuck rows, dead banks, lost channels, CMT bit flips and AMU
misprogramming into a live :class:`~repro.ras.campaign.RASMachine`;
the :class:`RASController` detects them (ECC topology with the fixed
thresholds of :class:`~repro.hbm.stats.DeviceHealth`, CMT shadow
compare, translation spot checks) and repairs by software-defined remapping — composing a
replacement window permutation whose preimage of the faulty region is
retirable, migrating live data onto it, and gracefully degrading to a
reduced-channel mapping when a whole channel is lost.

Entry points: ``python -m repro ras`` runs a seeded campaign;
:func:`run_campaign` is the library equivalent.
"""

from repro.ras.campaign import CampaignResult, RASMachine, run_campaign
from repro.ras.controller import RASController, RASReport
from repro.ras.faults import DeviceFaultPlan, DeviceFaultSpec
from repro.ras.repair import FaultCube, compose_repair, cube_for, preimage_pages
from repro.ras.storage import DeviceStorage

__all__ = [
    "CampaignResult",
    "DeviceFaultPlan",
    "DeviceFaultSpec",
    "DeviceStorage",
    "FaultCube",
    "RASController",
    "RASMachine",
    "RASReport",
    "compose_repair",
    "cube_for",
    "preimage_pages",
    "run_campaign",
]
