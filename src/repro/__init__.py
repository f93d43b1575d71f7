"""SDAM: Software-Defined Address Mapping for 3D memory.

A full-stack reproduction of Zhang, Swift and Li, "Software-Defined
Address Mapping: A Case on 3D Memory" (ASPLOS 2022): the AMU/CMT
hardware models, the chunk-aware OS memory allocators, the access-
pattern profiler, the K-Means / DL-assisted mapping selection, and a
trace-driven HBM simulator to evaluate it all on.

This package is the curated surface: :class:`Session` runs
sweeps, :class:`Machine` one run, and the campaigns their reports.
Subsystem packages (``repro.core``, ``repro.hbm``, ``repro.mem``,
``repro.cpu``, ``repro.profiling``, ``repro.ml``, ``repro.workloads``,
``repro.system``) expose the full interfaces.

``import repro`` loads the run path, every module that
:meth:`Machine.run` and :meth:`Machine.profile` can reach.  Names from
the campaigns, the sweep runner and RAS load their modules on first use
(:mod:`repro.lazy`).
"""

from repro.core import MappingSelection, select_application_mapping
from repro.hbm import PlanCache, default_plan_cache
from repro.lazy import lazy_exports
from repro.system import (
    Machine,
    MachineResult,
    SystemConfig,
    standard_systems,
    system_by_key,
)

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "evaluation_workloads": ("repro.api", "evaluation_workloads"),
        "mixed_stride_workload": ("repro.api", "mixed_stride_workload"),
        "strided_workload": ("repro.api", "strided_workload"),
        "AdaptiveCampaignResult": ("repro.online.campaign", "AdaptiveCampaignResult"),
        "run_adaptive_campaign": ("repro.online.campaign", "run_adaptive_campaign"),
        "AdaptiveController": ("repro.online.controller", "AdaptiveController"),
        "CampaignResult": ("repro.ras.campaign", "CampaignResult"),
        "run_ras_campaign": ("repro.ras.campaign", "run_campaign"),
        "RASReport": ("repro.ras.controller", "RASReport"),
        "DeviceFaultPlan": ("repro.ras.faults", "DeviceFaultPlan"),
        "DeviceFaultSpec": ("repro.ras.faults", "DeviceFaultSpec"),
        "SpeedupTable": ("repro.system.experiment", "SpeedupTable"),
        "Session": ("repro.system.runner", "Session"),
        "SuiteResult": ("repro.system.runner", "SuiteResult"),
    },
)

__version__ = "1.4.0"

__all__ = [
    "AdaptiveCampaignResult",
    "AdaptiveController",
    "CampaignResult",
    "DeviceFaultPlan",
    "DeviceFaultSpec",
    "Machine",
    "MappingSelection",
    "PlanCache",
    "RASReport",
    "run_adaptive_campaign",
    "run_ras_campaign",
    "MachineResult",
    "Session",
    "SpeedupTable",
    "SuiteResult",
    "SystemConfig",
    "__version__",
    "default_plan_cache",
    "evaluation_workloads",
    "mixed_stride_workload",
    "select_application_mapping",
    "standard_systems",
    "strided_workload",
    "system_by_key",
]
