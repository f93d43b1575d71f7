"""Figure 15: speedups when the data-intensive benchmarks run on
near-memory accelerators.

Section 7.4's final result: accelerators benefit more than CPUs (2.58x
for the best system vs 1.84x on CPU) because (i) they sustain far more
concurrent memory accesses and (ii) their tiny scratch buffers let
almost every access reach external memory.  We run the same eight
workloads on the accelerator engine and compare against the CPU run.
"""

from __future__ import annotations

from repro.ml import AutoencoderConfig
from repro.system import Session, standard_systems
from repro.system.reporting import format_table
from repro.workloads import data_intensive_suite

from conftest import is_quick

DL_CONFIG = AutoencoderConfig(pretrain_steps=60, joint_steps=30)


def run_fig15():
    workloads = data_intensive_suite()
    if is_quick():
        workloads = workloads[:3]
    systems = standard_systems(cluster_counts=(32,))
    accel = Session(engine="accelerator", dl_config=DL_CONFIG).sweep(
        workloads, systems
    )
    cpu = Session(dl_config=DL_CONFIG).sweep(workloads, systems)
    return accel.raise_errors().table, cpu.raise_errors().table


def test_fig15_accelerator_speedups(benchmark, record):
    accel, cpu = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    rows = accel.to_rows()
    geo: dict[str, object] = {"workload": "GEOMEAN"}
    for system in accel.systems():
        geo[system] = accel.geomean(system)
    rows.append(geo)
    text = format_table(
        rows, title="Fig 15: accelerator speedups (baseline: accel BS+DM)"
    )
    comparison = [
        {
            "system": system,
            "accelerator": accel.geomean(system),
            "cpu": cpu.geomean(system),
        }
        for system in accel.systems()
    ]
    text += "\n\n" + format_table(
        comparison, title="Accelerator vs CPU geomean speedup"
    )
    record("fig15_accelerator", text)

    best_accel = max(
        accel.geomean(s) for s in accel.systems() if s.startswith("SDM")
    )
    best_cpu = max(
        cpu.geomean(s) for s in cpu.systems() if s.startswith("SDM")
    )
    # Accelerators gain at least as much as CPUs (paper: 2.58x vs 1.84x).
    assert best_accel >= best_cpu * 0.98
    assert best_accel > 1.05
