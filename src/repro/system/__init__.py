"""System composition: configurations, machines, experiments, runner."""

from repro.lazy import lazy_exports
from repro.system.config import SystemConfig, standard_systems, system_by_key
from repro.system.machine import ExternalSummary, Machine, MachineResult

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CorunMachine": ("repro.system.corun", "CorunMachine"),
        "CorunResult": ("repro.system.corun", "CorunResult"),
        "SpeedupTable": ("repro.system.experiment", "SpeedupTable"),
        "core_sweep": ("repro.system.experiment", "core_sweep"),
        "frequency_sweep": ("repro.system.experiment", "frequency_sweep"),
        "format_series": ("repro.system.reporting", "format_series"),
        "format_table": ("repro.system.reporting", "format_table"),
        "CellError": ("repro.system.runner", "CellError"),
        "Session": ("repro.system.runner", "Session"),
        "StageMetrics": ("repro.system.runner", "StageMetrics"),
        "SuiteResult": ("repro.system.runner", "SuiteResult"),
    },
)

__all__ = [
    "CellError",
    "CorunMachine",
    "CorunResult",
    "ExternalSummary",
    "Machine",
    "MachineResult",
    "Session",
    "SpeedupTable",
    "StageMetrics",
    "SuiteResult",
    "SystemConfig",
    "core_sweep",
    "format_series",
    "format_table",
    "frequency_sweep",
    "standard_systems",
    "system_by_key",
]
