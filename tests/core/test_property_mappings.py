"""Property tests: registered mappings are bijections, one == many.

The Section 4 guarantee — no two physical addresses alias one hardware
address — holds for *every* mapping family the systems register:
boot-time permutations, BSM-selected shuffles, XOR hash folds, and the
SDAM controller's per-chunk window permutations.  These tests state it
as a property over the mapping constructors rather than per-example.
A translator must also map each address on its own exactly as it does
inside a whole trace (the SDAM controller takes a different path for a
one-mapping trace than for a mixed one).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmatrix import BitOperator
from repro.core.bitshuffle import select_global_mapping
from repro.core.chunks import ChunkGeometry
from repro.core.hashing import default_hash_mapping
from repro.core.mapping import identity_mapping
from repro.core.sdam import GlobalMappingTranslator, SDAMController
from repro.hbm.config import hbm2_config

LAYOUT = hbm2_config().layout()


def _controller(num_mappings: int = 4, seed: int = 0) -> SDAMController:
    geometry = ChunkGeometry(total_bytes=hbm2_config().total_bytes)
    controller = SDAMController(geometry)
    rng = np.random.default_rng(seed)
    mapping_ids = [
        controller.register_mapping(rng.permutation(geometry.window_bits))
        for _ in range(num_mappings)
    ]
    for chunk_no in range(geometry.num_chunks):
        controller.assign_chunk(
            chunk_no, mapping_ids[chunk_no % len(mapping_ids)]
        )
    return controller


def _random_trace(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = hbm2_config().total_bytes // 64
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(64)


def _one(translator, pa) -> int:
    """Translate one address through the array entry point."""
    return int(translator.translate(np.array([pa], dtype=np.uint64))[0])


class TestRegisteredMappingsAreBijections:
    def test_identity(self):
        assert identity_mapping(LAYOUT.width).is_bijective()

    def test_hash_mapping(self):
        assert default_hash_mapping(LAYOUT).is_bijective()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_permutation(self, seed):
        rng = np.random.default_rng(seed)
        operator = BitOperator.from_permutation(rng.permutation(LAYOUT.width))
        assert operator.is_bijective()
        assert operator.invert().compose(operator).is_identity()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_bsm_selected_mapping(self, seed):
        rng = np.random.default_rng(seed)
        rates = rng.random(LAYOUT.width)
        mapping = select_global_mapping(rates, LAYOUT)
        assert mapping.is_permutation() and mapping.is_bijective()

    def test_every_controller_mapping(self):
        controller = _controller(num_mappings=6, seed=3)
        low, high = controller.geometry.window_slice()
        for index in range(controller.cmt.live_mappings):
            operator = controller.operator_of(index)
            assert operator.is_bijective()
            # Section 4's correctness rule: line-offset and chunk-number
            # bits pass through untouched.
            source = operator.permutation_source()
            outside = np.r_[0:low, high:source.size]
            np.testing.assert_array_equal(source[outside], outside)

    def test_inverse_round_trip_on_trace(self):
        mapping = default_hash_mapping(LAYOUT)
        pa = _random_trace(512, seed=9)
        np.testing.assert_array_equal(
            mapping.invert().apply(mapping.apply(pa)), pa
        )


class TestScalarAgreesWithVector:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_global_translator(self, seed):
        rng = np.random.default_rng(seed)
        translator = GlobalMappingTranslator(
            BitOperator.from_permutation(rng.permutation(LAYOUT.width))
        )
        pa = _random_trace(64, seed=seed & 0xFFFF)
        vector = translator.translate(pa)
        scalars = [_one(translator, a) for a in pa]
        np.testing.assert_array_equal(vector, scalars)

    def test_global_hash_translator(self):
        translator = GlobalMappingTranslator(default_hash_mapping(LAYOUT))
        pa = _random_trace(128, seed=21)
        vector = translator.translate(pa)
        scalars = [_one(translator, a) for a in pa]
        np.testing.assert_array_equal(vector, scalars)

    def test_sdam_controller(self):
        controller = _controller(num_mappings=5, seed=1)
        pa = _random_trace(256, seed=2)
        vector = controller.translate(pa)
        scalars = [_one(controller, a) for a in pa]
        np.testing.assert_array_equal(vector, scalars)

    def test_sdam_scalar_uses_chunk_mapping(self):
        controller = _controller(num_mappings=3, seed=4)
        geometry = controller.geometry
        for chunk_no in (0, 1, 2, geometry.num_chunks - 1):
            pa = chunk_no * geometry.chunk_bytes + 0b1010101000000
            index = controller.cmt.mapping_index_of(chunk_no)
            expected = controller.operator_of(index).apply(pa)
            assert _one(controller, pa) == expected
