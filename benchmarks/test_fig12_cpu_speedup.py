"""Figure 12: CPU speedups over BS+DM for (a) standard benchmarks
(SPEC2006 + PARSEC) and (b) the data-intensive benchmarks, across all
seven systems with 4- and 32-cluster ML/DL variants.

Methodology follows Section 7.3/7.4: profiling and evaluation use
different inputs; the global BS+BSM mapping is selected from the
combined workload-mix profile.  Expected shapes: BS+BSM barely moves,
BS+HM earns a modest broad win, SDAM variants win more, data-intensive
gains exceed standard-benchmark gains.
"""

from __future__ import annotations

import numpy as np

from repro.ml import AutoencoderConfig
from repro.system import Session, standard_systems
from repro.system.reporting import format_table
from repro.workloads import data_intensive_suite, parsec_suite, spec2006_suite

from conftest import is_quick

# Laptop-scale DL config: same architecture, fewer steps.
DL_CONFIG = AutoencoderConfig(pretrain_steps=60, joint_steps=30)


def suites():
    standard = spec2006_suite() + parsec_suite()
    data_intensive = data_intensive_suite()
    if is_quick():
        standard = standard[:3]
        data_intensive = data_intensive[:2]
    return standard, data_intensive


def run_fig12():
    systems = standard_systems()
    standard, data_intensive = suites()
    session = Session(dl_config=DL_CONFIG)
    std_table = session.sweep(standard, systems).raise_errors().table
    di_table = session.sweep(data_intensive, systems).raise_errors().table
    return std_table, di_table


def render(table, title: str) -> str:
    rows = table.to_rows()
    geo: dict[str, object] = {"workload": "GEOMEAN"}
    for system in table.systems():
        geo[system] = table.geomean(system)
    rows.append(geo)
    return format_table(rows, title=title)


def test_fig12_cpu_speedups(benchmark, record):
    std_table, di_table = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    text = render(std_table, "Fig 12(a): CPU speedup, standard benchmarks")
    text += "\n\n" + render(
        di_table, "Fig 12(b): CPU speedup, data-intensive benchmarks"
    )
    record("fig12_cpu_speedup", text)

    # Shape checks against the paper's ordering (not absolute numbers).
    std = {s: std_table.geomean(s) for s in std_table.systems()}
    di = {s: di_table.geomean(s) for s in di_table.systems()}

    # No system loses badly to the baseline on average.
    assert all(v > 0.85 for v in std.values())
    best_sdam = max(v for k, v in std.items() if k.startswith("SDM"))
    best_sdam_di = max(v for k, v in di.items() if k.startswith("SDM"))
    if is_quick():
        return  # threshold shapes need the full suites

    # The suite-mix global bit-shuffle barely helps (paper: 1.01x).
    assert std["BS+BSM"] <= std["BS+HM"]
    # Hashing earns a modest broad win (paper: 1.14x).
    assert 1.0 <= std["BS+HM"] < 1.6
    # SDAM with per-variable mappings beats every global baseline.
    assert best_sdam >= std["BS+HM"]
    assert best_sdam > 1.05
    # Data-intensive benchmarks gain more than standard ones (paper:
    # 1.84x vs 1.41x for the best system).
    assert best_sdam_di > best_sdam
