"""Figure 14: speedup sensitivity to HBM frequency and core count.

Section 7.4: stressing the memory system — slowing the HBM to a quarter
of its frequency, or adding cores — increases SDAM's advantage (the
paper reports +19 % at quarter frequency and 1.27x -> 1.32x from 1 to 4
cores), because contention grows with pressure.
"""

from __future__ import annotations

from repro.ml import AutoencoderConfig
from repro.system import core_sweep, frequency_sweep, system_by_key
from repro.system.reporting import format_series
from repro.workloads import parsec_workload, spec2006_workload

from conftest import is_quick

DL_CONFIG = AutoencoderConfig(pretrain_steps=60, joint_steps=30)


def workloads():
    names = ["libquantum", "omnetpp"] if is_quick() else [
        "libquantum",
        "omnetpp",
        "mcf",
        "h264ref",
    ]
    loads = [spec2006_workload(name) for name in names]
    if not is_quick():
        loads.append(parsec_workload("vips"))
    return loads


def run_fig14():
    system = system_by_key("sdm_bsm_ml32")
    baseline = system_by_key("bs_dm")
    freq = frequency_sweep(
        workloads(),
        system,
        baseline,
        scales=(1.0, 0.5, 0.25),
        dl_config=DL_CONFIG,
    )
    cores = core_sweep(
        workloads(),
        system,
        baseline,
        core_counts=(1, 2, 4),
        dl_config=DL_CONFIG,
    )
    return freq, cores


def test_fig14_memory_pressure_sensitivity(benchmark, record):
    freq, cores = benchmark.pedantic(run_fig14, rounds=1, iterations=1)
    text = format_series(
        freq,
        "hbm_frequency_scale",
        "geomean_speedup",
        title="Fig 14(a): SDAM speedup vs HBM frequency",
    )
    text += "\n\n" + format_series(
        cores, "cores", "geomean_speedup", title="Fig 14(b): speedup vs cores"
    )
    record("fig14_sensitivity", text)

    # Slower memory -> bigger SDAM win (paper: +19% at quarter speed).
    assert freq[0.25] > freq[1.0]
    # More cores -> at least as big a win (paper: 1.27x -> 1.32x).
    assert cores[4] >= cores[1] * 0.98
    assert all(value > 0.95 for value in freq.values())
