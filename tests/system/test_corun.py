"""Tests for multiprogrammed (co-run) execution with a shared CMT."""

import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.system.corun import CorunMachine
from repro.workloads import MixedStrideWorkload, StridedCopyWorkload


def small_apps():
    return [
        StridedCopyWorkload(stride_lines=16, accesses_per_thread=1500),
        StridedCopyWorkload(stride_lines=4, accesses_per_thread=1500),
    ]


def golden_apps():
    return [
        StridedCopyWorkload(stride_lines=16, accesses_per_thread=1500),
        StridedCopyWorkload(stride_lines=4, accesses_per_thread=1500),
        MixedStrideWorkload(strides=(1, 8), accesses_per_stride=800),
    ]


def corun_digest(result) -> str:
    text = json.dumps(
        {
            "stats": result.stats.to_dict(),
            "compute_ns": result.compute_ns,
            "live_mappings": result.live_mappings,
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``CorunResult`` digests of a three-application mix, with and without
#: SDAM.  Any change to the co-run pipeline's profiling, selection,
#: allocation, trace interleave or timing that moves a bit shows here.
CORUN_GOLDEN = {
    True: "91ccd91ddb4de0d8",
    False: "826bdef728fa59ab",
}


@pytest.mark.parametrize("use_sdam", [True, False])
def test_corun_golden(use_sdam):
    machine = CorunMachine(use_sdam=use_sdam, clusters_per_app=2, seed=3)
    result = machine.run(golden_apps(), profile_seed=0, eval_seed=1)
    assert corun_digest(result) == CORUN_GOLDEN[use_sdam]


class TestCorun:
    def test_runs_and_reports(self):
        machine = CorunMachine(clusters_per_app=2)
        result = machine.run(small_apps())
        assert result.stats.requests > 0
        assert result.workload_names == ["copy-stride16", "copy-stride4"]

    def test_sdam_beats_baseline(self):
        apps = small_apps()
        base = CorunMachine(use_sdam=False).run(apps)
        sdam = CorunMachine(use_sdam=True, clusters_per_app=2).run(apps)
        assert sdam.time_ns < base.time_ns

    def test_mapping_budget_shared(self):
        machine = CorunMachine(clusters_per_app=2)
        result = machine.run(small_apps())
        # identity + up to 2 clusters per app.
        assert result.live_mappings <= 1 + 2 * 2

    def test_budget_never_overflows(self):
        apps = [
            MixedStrideWorkload(strides=(1, 4, 8, 16), accesses_per_stride=800)
            for _ in range(3)
        ]
        machine = CorunMachine(clusters_per_app=4, max_mappings=256)
        result = machine.run(apps)
        assert result.live_mappings <= 256

    def test_small_budget_still_works(self):
        apps = small_apps()
        tight = CorunMachine(clusters_per_app=1).run(apps)
        roomy = CorunMachine(clusters_per_app=4).run(apps)
        assert tight.stats.requests == pytest.approx(
            roomy.stats.requests, rel=0.1
        )
        # More clusters never hurt badly.
        assert roomy.time_ns <= tight.time_ns * 1.15

    def test_no_workloads_rejected(self):
        with pytest.raises(ConfigError):
            CorunMachine().run([])

    def test_bad_cluster_count(self):
        with pytest.raises(ConfigError):
            CorunMachine(clusters_per_app=0)
