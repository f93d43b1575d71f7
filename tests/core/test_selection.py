"""Tests for the end-to-end mapping-selection pipeline (Section 6.2)."""

import numpy as np
import pytest

from repro.core import ChunkGeometry
from repro.core.selection import (
    select_application_mapping,
    select_mappings_dl,
    select_mappings_kmeans,
)
from repro.cpu.trace import AccessTrace
from repro.errors import ProfilingError
from repro.hbm import hbm2_config
from repro.ml import AutoencoderConfig
from repro.profiling.profiler import profile_trace
from repro.profiling.variables import VariableRegistry

GEO = ChunkGeometry()
LAYOUT = hbm2_config().layout()
FAST_DL = AutoencoderConfig(
    pretrain_steps=20, joint_steps=10, hidden_dim=16, delta_embed_dim=8
)


def stride_profile(strides: list[int], per_variable: int = 2000):
    """A profile with one variable per stride."""
    registry = VariableRegistry()
    parts, tags = [], []
    for index, stride in enumerate(strides):
        base = index * (8 << 20)
        registry.record_allocation(f"v{index}", base, 8 << 20)
        addresses = base + (
            np.arange(per_variable, dtype=np.uint64) * np.uint64(stride * 64)
        ) % np.uint64(8 << 20)
        parts.append(addresses)
        tags.append(np.full(per_variable, index))
    trace = AccessTrace(va=np.concatenate(parts), variable=np.concatenate(tags))
    return profile_trace(trace, registry, name="strides")


class TestApplicationMapping:
    def test_single_mapping_for_all_variables(self):
        profile = stride_profile([1, 16])
        selection = select_application_mapping(profile, LAYOUT, GEO)
        assert selection.num_mappings == 1
        assert set(selection.variable_cluster.values()) == {0}

    def test_empty_profile_rejected(self):
        registry = VariableRegistry()
        profile = profile_trace(
            AccessTrace(va=np.zeros(0, dtype=np.uint64)), registry
        )
        with pytest.raises(ProfilingError):
            select_application_mapping(profile, LAYOUT, GEO)


class TestKMeansSelection:
    def test_distinct_strides_get_distinct_mappings(self):
        profile = stride_profile([1, 16], per_variable=3000)
        selection = select_mappings_kmeans(
            profile, k=2, layout=LAYOUT, geometry=GEO, coverage=1.0
        )
        clusters = selection.variable_cluster
        assert clusters[profile.by_name("v0").variable_id] != clusters[
            profile.by_name("v1").variable_id
        ]

    def test_perms_are_valid_window_permutations(self):
        profile = stride_profile([1, 4, 16])
        selection = select_mappings_kmeans(
            profile, k=3, layout=LAYOUT, geometry=GEO, coverage=1.0
        )
        for perm in selection.window_perms:
            assert sorted(perm.tolist()) == list(range(GEO.window_bits))

    def test_k_clamped(self):
        profile = stride_profile([1, 16])
        selection = select_mappings_kmeans(
            profile, k=10, layout=LAYOUT, geometry=GEO, coverage=1.0
        )
        assert selection.k <= 2

    def test_coverage_limits_clustered_variables(self):
        profile = stride_profile([1, 2, 4, 8], per_variable=1000)
        small = select_mappings_kmeans(
            profile, k=4, layout=LAYOUT, geometry=GEO, coverage=0.3
        )
        assert len(small.variable_cluster) < 4

    def test_elapsed_recorded(self):
        profile = stride_profile([1, 16])
        selection = select_mappings_kmeans(profile, 2, LAYOUT, GEO, coverage=1.0)
        assert selection.elapsed_seconds > 0

    def test_perm_for_variable(self):
        profile = stride_profile([1, 16])
        selection = select_mappings_kmeans(profile, 2, LAYOUT, GEO, coverage=1.0)
        vid = profile.profiles[0].variable_id
        assert selection.perm_for_variable(vid) is not None
        assert selection.perm_for_variable(999) is None


class TestDLSelection:
    def test_separates_stride_families(self):
        profile = stride_profile([1, 1, 16, 16], per_variable=2500)
        selection = select_mappings_dl(
            profile,
            k=2,
            layout=LAYOUT,
            geometry=GEO,
            config=AutoencoderConfig(),
            coverage=1.0,
        )
        clusters = selection.variable_cluster
        same_a = clusters[profile.by_name("v0").variable_id] == clusters[
            profile.by_name("v1").variable_id
        ]
        same_b = clusters[profile.by_name("v2").variable_id] == clusters[
            profile.by_name("v3").variable_id
        ]
        cross = clusters[profile.by_name("v0").variable_id] != clusters[
            profile.by_name("v2").variable_id
        ]
        assert same_a and same_b and cross

    def test_details_recorded(self):
        profile = stride_profile([1, 1, 16, 16])
        trained = select_mappings_dl(
            profile, 2, LAYOUT, GEO, config=FAST_DL, coverage=1.0
        )
        assert trained.method == "dl-kmeans"
        assert trained.details["trained"] is True
        assert 0 <= trained.details["vocab_coverage"] <= 1
        # As many clusters as majors: each major is its own cluster,
        # and nothing is fitted.
        forced = select_mappings_dl(
            profile, 4, LAYOUT, GEO, config=FAST_DL, coverage=1.0
        )
        assert forced.details == {"trained": False}
        assert list(forced.variable_cluster.values()) == [0, 1, 2, 3]


class TestProgrammerDirected:
    """The no-profiling path: mappings from known strides."""

    @pytest.mark.parametrize("stride", [1, 2, 4, 8, 16, 32])
    def test_known_stride_reaches_all_channels(self, stride):
        from repro.core.selection import mapping_for_stride
        from repro.core.sdam import SDAMController
        from repro.hbm import WindowModel, hbm2_config

        config = hbm2_config()
        perm = mapping_for_stride(stride, LAYOUT, GEO)
        controller = SDAMController(GEO)
        mapping_id = controller.register_mapping(perm)
        for chunk in range(4):
            controller.assign_chunk(chunk, mapping_id)
        pa = (
            np.arange(4096, dtype=np.uint64) * np.uint64(stride * 64)
        ) % np.uint64(4 * GEO.chunk_bytes)
        stats = WindowModel(config, max_inflight=256).simulate(
            controller.translate(pa)
        )
        assert stats.channels_touched == 32
        # At least half of peak: full CLP, possibly activate-bound.
        assert stats.throughput_gbps > 0.5 * config.peak_bandwidth_gbps

    def test_invalid_stride(self):
        from repro.core.selection import mapping_for_stride

        with pytest.raises(ProfilingError):
            mapping_for_stride(0, LAYOUT, GEO)
