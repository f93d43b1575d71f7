"""Speedup tables and the Fig. 14 sensitivity sweeps.

A :class:`SpeedupTable` reports per-workload speedups over ``BS+DM``
plus geometric means (Figs. 12, 14, 15); the sweeps that fill it run
through :class:`repro.system.runner.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.ledger import Record
from repro.system.config import SystemConfig
from repro.system.machine import MachineResult
from repro.workloads.base import Workload

__all__ = ["SpeedupTable", "frequency_sweep", "core_sweep"]


@dataclass
class SpeedupTable(Record):
    """Results of a workload x system sweep, keyed by labels.

    Its :meth:`fingerprint` holds each result's fingerprint, so two
    sweeps of the same cells compare equal.
    """

    baseline_label: str
    results: dict[str, dict[str, MachineResult]] = field(default_factory=dict)

    def add(self, result: MachineResult) -> None:
        """Attach a chunk to this group."""
        self.results.setdefault(result.workload, {})[result.system] = result

    def workloads(self) -> list[str]:
        """Workload names present in the table."""
        return list(self.results)

    def systems(self) -> list[str]:
        """System labels present in the table."""
        first = next(iter(self.results.values()), {})
        return list(first)

    def speedup(self, workload: str, system: str) -> float:
        """Speedup of one system on one workload vs the baseline."""
        row = self.results[workload]
        baseline = row[self.baseline_label].time_ns
        return baseline / row[system].time_ns

    def speedups(self, system: str) -> dict[str, float]:
        """Per-workload speedups for one system."""
        return {
            workload: self.speedup(workload, system)
            for workload in self.results
            if system in self.results[workload]
        }

    def geomean(self, system: str) -> float:
        """Geometric-mean speedup of a system across workloads."""
        values = list(self.speedups(system).values())
        if not values:
            raise ConfigError(f"no results for system {system!r}")
        return float(np.exp(np.mean(np.log(values))))

    def to_rows(self) -> list[dict[str, float | str]]:
        """Table rows (one dict per workload) for reporting."""
        rows = []
        for workload in self.results:
            row: dict[str, float | str] = {"workload": workload}
            for system in self.results[workload]:
                row[system] = self.speedup(workload, system)
            rows.append(row)
        return rows


def frequency_sweep(
    workloads: list[Workload],
    system: SystemConfig,
    baseline: SystemConfig,
    scales: tuple[float, ...] = (1.0, 0.5, 0.25),
    **machine_kwargs,
) -> dict[float, float]:
    """Fig. 14: geomean speedup as the HBM slows down.

    ``machine_kwargs`` go to one :class:`~repro.system.runner.Session`
    per scale.
    """
    from repro.hbm.config import hbm2_config
    from repro.system.runner import Session

    out: dict[float, float] = {}
    for scale in scales:
        hbm = hbm2_config().scaled(scale)
        suite = Session(hbm=hbm, **machine_kwargs).sweep(
            workloads, [baseline, system]
        )
        out[scale] = suite.raise_errors().table.geomean(system.label)
    return out


def core_sweep(
    workloads: list[Workload],
    system: SystemConfig,
    baseline: SystemConfig,
    core_counts: tuple[int, ...] = (1, 2, 4),
    **machine_kwargs,
) -> dict[int, float]:
    """Fig. 14 companion: geomean speedup vs core count.

    ``machine_kwargs`` go to one :class:`~repro.system.runner.Session`
    per count.
    """
    from repro.system.runner import Session

    out: dict[int, float] = {}
    for cores in core_counts:
        suite = Session(cores=cores, **machine_kwargs).sweep(
            workloads, [baseline, system]
        )
        out[cores] = suite.raise_errors().table.geomean(system.label)
    return out
