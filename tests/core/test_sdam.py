"""Unit + property tests for the SDAM controller datapath."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry, MiB
from repro.core.mapping import identity_mapping
from repro.core.sdam import GlobalMappingTranslator, SDAMController
from repro.errors import AddressError, MappingError

SMALL = ChunkGeometry(total_bytes=64 * MiB)  # 32 chunks, quick to exercise


def rolled(shift: int) -> np.ndarray:
    return np.roll(np.arange(SMALL.window_bits), shift)


class TestGlobalTranslator:
    def test_identity_passthrough(self):
        translator = GlobalMappingTranslator(identity_mapping(26))
        pa = np.arange(0, 1 << 20, 4096, dtype=np.uint64)
        np.testing.assert_array_equal(translator.translate(pa), pa)

    def test_applies_mapping(self):
        source = list(range(26))
        source[6], source[20] = source[20], source[6]
        translator = GlobalMappingTranslator(BitOperator.from_permutation(source))
        assert translator.translate(np.array([1 << 20], dtype=np.uint64))[0] == 1 << 6

    def test_rejects_singular_operator(self):
        # HA bits 1 and 2 are both PA bit 0 XOR PA bit 1: two PAs alias
        # one HA, which Section 4 forbids.
        matrix = np.eye(26, dtype=np.uint8)
        matrix[1, 0] = 1
        matrix[2] = matrix[1]
        operator = BitOperator(matrix)
        assert not operator.is_bijective()
        with pytest.raises(MappingError):
            GlobalMappingTranslator(operator)

    def test_uniform_operator_is_the_held_operator(self):
        operator = identity_mapping(26)
        translator = GlobalMappingTranslator(operator)
        assert translator.uniform_operator(np.zeros(1, np.uint64)) is operator


class TestSDAMController:
    def test_register_window_permutation(self):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(rolled(1))
        assert mapping_id == 1

    def test_register_rejects_leaky_mapping(self):
        # Registration takes the chunk-offset window only, so nothing can
        # move a line-offset or chunk-number bit: a full-width source and
        # a window array that is not a permutation are both refused.
        controller = SDAMController(SMALL)
        source = list(range(SMALL.address_bits))
        source[0], source[25] = source[25], source[0]  # moves line offset bit
        for bad in (source, np.zeros(SMALL.window_bits, dtype=int)):
            with pytest.raises(MappingError):
                controller.register_mapping(bad)
        assert controller.cmt.live_mappings == 1

    def test_unconfigured_chunks_are_identity(self):
        controller = SDAMController(SMALL)
        pa = np.arange(0, 4 * MiB, 64, dtype=np.uint64)
        np.testing.assert_array_equal(controller.translate(pa), pa)

    def test_assigned_chunk_is_shuffled_others_not(self):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(rolled(3))
        controller.assign_chunk(1, mapping_id)
        pa = np.array([100 << 6, (2 * MiB) + (100 << 6)], dtype=np.uint64)
        ha = controller.translate(pa)
        assert ha[0] == pa[0]  # chunk 0 untouched
        assert ha[1] != pa[1]  # chunk 1 remapped
        expected = controller.operator_of(mapping_id).apply(int(pa[1]))
        assert int(ha[1]) == expected

    def test_chunk_number_always_preserved(self):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(rolled(5))
        for chunk in range(SMALL.num_chunks):
            controller.assign_chunk(chunk, mapping_id)
        rng = np.random.default_rng(0)
        pa = rng.integers(0, SMALL.total_bytes, 2000, dtype=np.uint64)
        ha = controller.translate(pa)
        np.testing.assert_array_equal(
            SMALL.chunk_number(ha), SMALL.chunk_number(pa)
        )

    def test_release_chunk_restores_identity(self):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(rolled(3))
        controller.assign_chunk(2, mapping_id)
        controller.release_chunk(2)
        pa = np.array([(4 * MiB) + 4096], dtype=np.uint64)
        np.testing.assert_array_equal(controller.translate(pa), pa)

    def test_out_of_range_address_rejected(self):
        controller = SDAMController(SMALL)
        with pytest.raises(AddressError):
            controller.translate(np.array([SMALL.total_bytes], dtype=np.uint64))

    def test_translate_scalar(self):
        controller = SDAMController(SMALL)
        pa = np.array([4096], dtype=np.uint64)
        np.testing.assert_array_equal(controller.translate(pa), pa)

    @given(shift=st.integers(1, 14), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_translation_is_injective(self, shift, seed):
        """Section 4: one PA maps to exactly one HA and vice versa."""
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(rolled(shift))
        rng = np.random.default_rng(seed)
        for chunk in range(0, SMALL.num_chunks, 2):
            controller.assign_chunk(chunk, mapping_id)
        pa = np.unique(
            rng.integers(0, SMALL.total_bytes, 4000, dtype=np.uint64)
        )
        ha = controller.translate(pa)
        assert np.unique(ha).size == pa.size

    @given(shift=st.integers(0, 14))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_through_inverse(self, shift):
        controller = SDAMController(SMALL)
        mapping_id = controller.register_mapping(rolled(shift))
        controller.assign_chunk(0, mapping_id)
        pa = np.arange(0, 2 * MiB, 997 * 64, dtype=np.uint64)
        ha = controller.translate(pa)
        inverse = controller.operator_of(mapping_id).invert()
        np.testing.assert_array_equal(inverse.apply(ha), pa)


class TestShadowTable:
    def test_shadow_table_mirrors_driver_writes(self):
        controller = SDAMController(SMALL)
        no_diff = {"entries": [], "configs": []}
        first = controller.register_mapping(rolled(1))
        second = controller.register_mapping(rolled(2))
        assert controller.cmt.diff(controller.shadow_cmt) == no_diff
        controller.assign_chunk(0, first)
        controller.assign_chunk(5, second)
        controller.assign_chunk(5, first)
        assert controller.cmt.diff(controller.shadow_cmt) == no_diff
        assert controller.shadow_cmt.mapping_index_of(5) == first
        controller.release_chunk(0)
        assert controller.cmt.diff(controller.shadow_cmt) == no_diff
        assert controller.shadow_cmt.mapping_index_of(0) == 0


class TestWindowLut:
    """Every crossbar truth-table row is the window operator applied to
    every window value, however the rows were built."""

    @staticmethod
    def expected_row(controller, perm) -> np.ndarray:
        window = np.arange(1 << controller.geometry.window_bits)
        return controller.amu.window_operator(perm).apply(window)

    def assert_rows(self, controller, perms) -> None:
        lut = controller.window_lut()
        assert lut.shape == (len(perms), 1 << controller.geometry.window_bits)
        for index, perm in enumerate(perms):
            np.testing.assert_array_equal(
                lut[index], self.expected_row(controller, perm)
            )

    @pytest.mark.parametrize(
        "geometry",
        # Odd (15-bit) and even (14-bit) windows split unevenly/evenly.
        [SMALL, ChunkGeometry(total_bytes=64 * MiB, chunk_bytes=1 * MiB)],
        ids=["15-bit", "14-bit"],
    )
    def test_identity_and_random_permutations(self, geometry):
        controller = SDAMController(geometry)
        rng = np.random.default_rng(0)
        perms = [np.arange(geometry.window_bits)]
        for _ in range(50):
            perm = rng.permutation(geometry.window_bits)
            controller.register_mapping(perm)
            perms.append(perm)
        self.assert_rows(controller, perms)

    def test_misprogrammed_and_reprogrammed_crossbar(self):
        controller = SDAMController(SMALL)
        good, wrong = rolled(3), rolled(5)
        mapping_id = controller.register_mapping(good)
        self.assert_rows(controller, [np.arange(SMALL.window_bits), good])
        controller.misprogram_crossbar(mapping_id, wrong)
        self.assert_rows(controller, [np.arange(SMALL.window_bits), wrong])
        assert controller.reprogram_crossbar() == 1
        self.assert_rows(controller, [np.arange(SMALL.window_bits), good])

    def test_built_rows_keep_their_values_when_a_mapping_arrives(self):
        controller = SDAMController(SMALL)
        controller.register_mapping(rolled(1))
        before = controller.window_lut()
        kept = before.copy()
        controller.register_mapping(rolled(2))
        after = controller.window_lut()
        np.testing.assert_array_equal(before, kept)
        np.testing.assert_array_equal(after[:2], kept)
        self.assert_rows(
            controller, [np.arange(SMALL.window_bits), rolled(1), rolled(2)]
        )
