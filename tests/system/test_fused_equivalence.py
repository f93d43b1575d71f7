"""Fused datapath vs legacy two-step: bit-exact, end to end.

The acceptance property of the fused pipeline: for every system in
``system/config.py``, ``decode_translated(pa, translator, config)`` is
bit-identical to ``decode_trace(translator.translate(pa), config)``
and to the per-bit translate and field-by-field decode loops it
replaced (``tests/system/translate_oracle.py``), and a ``Machine`` run
whose evaluate stage translates to an HA array and decodes that (the
legacy two-step, patched in below) fingerprints identically to the
fused default.
"""

import numpy as np
import pytest

from repro import api
from repro.core.bitshuffle import select_global_mapping
from repro.core.chunks import ChunkGeometry
from repro.core.hashing import default_hash_mapping
from repro.core.mapping import identity_mapping
from repro.core.sdam import GlobalMappingTranslator, SDAMController
from repro.hbm.config import hbm2_config
from repro.hbm.decode import decode_trace, decode_translated
from repro.profiling.bfrv import bit_flip_rate_vector
from repro.system import machine as machine_module
from repro.system.config import standard_systems
from tests.system.translate_oracle import (
    _make_reference_translate,
    _reference_decode,
)

CONFIG = hbm2_config()
SYSTEMS = standard_systems(cluster_counts=(4,))


def _random_trace(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = CONFIG.total_bytes // CONFIG.line_bytes
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(
        CONFIG.line_bytes
    )


def _sdam_controller(num_mappings: int, seed: int) -> SDAMController:
    geometry = ChunkGeometry(total_bytes=CONFIG.total_bytes)
    controller = SDAMController(geometry)
    rng = np.random.default_rng(seed)
    mapping_ids = [
        controller.register_mapping(rng.permutation(geometry.window_bits))
        for _ in range(num_mappings)
    ]
    for chunk_no in range(geometry.num_chunks):
        if mapping_ids:
            controller.assign_chunk(
                chunk_no, mapping_ids[chunk_no % len(mapping_ids)]
            )
    return controller


def _translators():
    """One translator per mapping family the six systems exercise."""
    layout = CONFIG.layout()
    pa = _random_trace(4096, seed=0)
    yield "identity", GlobalMappingTranslator(identity_mapping(layout.width))
    yield "hash", GlobalMappingTranslator(default_hash_mapping(layout))
    yield "bsm", GlobalMappingTranslator(
        select_global_mapping(bit_flip_rate_vector(pa, layout.width), layout)
    )
    yield "sdam_single_live", _sdam_controller(num_mappings=0, seed=1)
    yield "sdam_multi", _sdam_controller(num_mappings=8, seed=1)


TRANSLATORS = pytest.mark.parametrize(
    "name,translator", list(_translators()), ids=lambda v: v if isinstance(v, str) else ""
)


def _assert_decoded_equal(fused, legacy, what):
    for name in ("channel", "bank", "row", "column", "global_bank"):
        np.testing.assert_array_equal(
            getattr(fused, name), getattr(legacy, name), err_msg=f"{what}.{name}"
        )


class TestTranslatorEquivalence:
    @TRANSLATORS
    def test_fused_matches_two_step(self, name, translator):
        pa = _random_trace(8192, seed=42)
        fused = decode_translated(pa, translator, CONFIG)
        legacy = decode_trace(translator.translate(pa), CONFIG)
        _assert_decoded_equal(fused, legacy, name)

    @TRANSLATORS
    def test_fused_matches_per_bit_oracle(self, name, translator):
        pa = _random_trace(16384, seed=0)
        fused = decode_translated(pa, translator, CONFIG)
        oracle = _reference_decode(_make_reference_translate(translator)(pa), CONFIG)
        _assert_decoded_equal(fused, oracle, name)

    def test_single_chunk_trace_uses_one_group(self):
        # A trace inside one chunk touches one mapping: still bit-exact.
        controller = _sdam_controller(num_mappings=8, seed=7)
        chunk = controller.geometry.chunk_bytes
        pa = (np.arange(512, dtype=np.uint64) * np.uint64(64)) + np.uint64(
            3 * chunk
        )
        fused = decode_translated(pa, controller, CONFIG)
        legacy = decode_trace(controller.translate(pa), CONFIG)
        _assert_decoded_equal(fused, legacy, "single_chunk")

    def test_empty_trace(self):
        controller = _sdam_controller(num_mappings=4, seed=3)
        pa = np.empty(0, dtype=np.uint64)
        fused = decode_translated(pa, controller, CONFIG)
        assert len(fused) == 0

    def test_lut_translate_matches_group_loop(self):
        # The crossbar-LUT gather vs the masked per-mapping group loop.
        controller = _sdam_controller(num_mappings=8, seed=5)
        pa = _random_trace(8192, seed=6)
        via_lut = controller.translate(pa)
        ha = pa.copy()
        for select, operator in controller.translation_groups(pa):
            assert select is not None  # mixed trace: per-mapping groups
            if not operator.is_identity():
                ha[select] = operator.apply(pa[select])
        np.testing.assert_array_equal(via_lut, ha)

    def test_wide_window_falls_back_without_lut(self):
        # 8 MiB chunks push the window past LUT_MAX_WINDOW_BITS.
        geometry = ChunkGeometry(
            total_bytes=CONFIG.total_bytes, chunk_bytes=8 * 1024 * 1024
        )
        assert geometry.window_bits > SDAMController.LUT_MAX_WINDOW_BITS
        controller = SDAMController(geometry)
        rng = np.random.default_rng(11)
        mapping_ids = [
            controller.register_mapping(rng.permutation(geometry.window_bits))
            for _ in range(4)
        ]
        for chunk_no in range(geometry.num_chunks):
            controller.assign_chunk(
                chunk_no, mapping_ids[chunk_no % len(mapping_ids)]
            )
        assert controller.window_lut() is None
        pa = _random_trace(4096, seed=12)
        fused = decode_translated(pa, controller, CONFIG)
        legacy = decode_trace(controller.translate(pa), CONFIG)
        _assert_decoded_equal(fused, legacy, "wide_window")


def _two_step_decode(pa, translator, config, cache=None):
    """The legacy evaluate stage: materialise HA, then decode it."""
    return decode_trace(translator.translate(pa), config)


class TestMachineEquivalence:
    @pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.key)
    def test_debug_ha_fingerprint_identical(self, spec, monkeypatch):
        workload = api.mixed_stride_workload(
            strides=(1, 16), accesses_per_stride=2048
        )
        kwargs = {"dl_config": api.QUICK_DL_CONFIG}
        fused = api.Machine(spec, **kwargs).run(workload)
        monkeypatch.setattr(
            machine_module, "decode_translated", _two_step_decode
        )
        legacy = api.Machine(spec, **kwargs).run(workload)
        assert fused.fingerprint() == legacy.fingerprint()
