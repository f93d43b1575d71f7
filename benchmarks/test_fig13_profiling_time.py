"""Figure 13: profiling time, K-Means vs DL-assisted K-Means.

The paper measures the offline mapping-selection cost per application:
K-Means is cheap (0.3 min at 4 patterns, 2 min at 32 — it needs more
iterations for more clusters), DL-assisted K-Means is an order of
magnitude slower (26-29 min) and nearly insensitive to the cluster
count (training dominates).  The same relative shape must hold here.
"""

from __future__ import annotations

from repro.core.selection import select_mappings_dl, select_mappings_kmeans
from repro.hbm import hbm2_config
from repro.core import ChunkGeometry
from repro.ml import AutoencoderConfig
from repro.system import Machine, system_by_key
from repro.system.reporting import format_table
from repro.workloads import spec2006_workload

from conftest import is_quick

GEO = ChunkGeometry()
LAYOUT = hbm2_config().layout()
DL_CONFIG = AutoencoderConfig(pretrain_steps=60, joint_steps=30)


def run_fig13():
    # omnetpp: the paper's many-variable stress case (64 majors at
    # coverage 0.95).  The quick run takes gcc (37 majors): with no more
    # majors than patterns a selector fits nothing, so both programs
    # must have more majors than 32 for both pattern counts to train.
    workload = spec2006_workload("omnetpp" if not is_quick() else "gcc")
    machine = Machine(system_by_key("bs_dm"))
    profile = machine.profile(workload)
    rows = []
    for clusters in (4, 32):
        kmeans = select_mappings_kmeans(
            profile, clusters, LAYOUT, GEO, coverage=0.95
        )
        dl = select_mappings_dl(
            profile, clusters, LAYOUT, GEO, config=DL_CONFIG, coverage=0.95
        )
        rows.append(
            {
                "patterns": clusters,
                "kmeans_seconds": kmeans.elapsed_seconds,
                "dl_seconds": dl.elapsed_seconds,
                "dl_over_kmeans": dl.elapsed_seconds / kmeans.elapsed_seconds,
            }
        )
    return rows


def test_fig13_profiling_time(benchmark, record):
    rows = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    record(
        "fig13_profiling_time",
        format_table(
            rows,
            title="Fig 13: mapping-selection time (K-Means vs DL-assisted)",
            float_format="{:.3f}",
        ),
    )
    for row in rows:
        # DL-assisted selection costs an order of magnitude more.
        assert row["dl_over_kmeans"] > 5
    # K-Means slows with more clusters; DL is training-dominated and
    # comparatively insensitive (paper: 26 min vs 29 min).
    kmeans_ratio = rows[1]["kmeans_seconds"] / rows[0]["kmeans_seconds"]
    dl_ratio = rows[1]["dl_seconds"] / rows[0]["dl_seconds"]
    assert dl_ratio < 2.0
    assert kmeans_ratio > dl_ratio * 0.5  # k-means is the k-sensitive one
