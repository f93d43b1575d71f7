"""Unit + property tests for PA-to-HA mappings (Section 4 correctness).

Every mapping is a :class:`~repro.core.bitmatrix.BitOperator`: the
bit-permutation family comes from :meth:`BitOperator.from_permutation`,
the XOR/linear family from a GF(2) matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitfield import AddressLayout
from repro.core.bitmatrix import BitOperator
from repro.core.mapping import identity_mapping, mapping_from_field_sources
from repro.errors import MappingError

WIDTH = 16


def small_layout() -> AddressLayout:
    return AddressLayout([("line", 2), ("channel", 3), ("bank", 2), ("row", 9)])


permutations = st.permutations(list(range(WIDTH)))
addresses = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


class TestPermutationMapping:
    """The bit-shuffle family: ``BitOperator.from_permutation``."""

    def test_identity(self):
        mapping = identity_mapping(8)
        assert mapping.is_identity()
        assert mapping.apply(0b10110101) == 0b10110101

    def test_swap_two_bits(self):
        source = list(range(8))
        source[0], source[7] = source[7], source[0]
        mapping = BitOperator.from_permutation(source)
        assert mapping.apply(0b0000_0001) == 0b1000_0000
        assert mapping.apply(0b1000_0000) == 0b0000_0001

    def test_rejects_non_permutation(self):
        with pytest.raises(MappingError):
            BitOperator.from_permutation([0, 0, 1])

    def test_rejects_empty(self):
        with pytest.raises(MappingError):
            BitOperator.from_permutation([])

    def test_rejects_2d(self):
        with pytest.raises(MappingError):
            BitOperator.from_permutation(np.zeros((2, 2), dtype=int))
        with pytest.raises(MappingError):
            BitOperator.from_permutation(np.arange(4).reshape(2, 2))

    def test_apply_vectorised_matches_scalar(self):
        rng = np.random.default_rng(7)
        source = rng.permutation(WIDTH)
        mapping = BitOperator.from_permutation(source)
        values = rng.integers(0, 1 << WIDTH, 64, dtype=np.uint64)
        vector = mapping.apply(values)
        scalars = [mapping.apply(int(v)) for v in values]
        np.testing.assert_array_equal(vector, scalars)

    @given(source=permutations, value=addresses)
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, source, value):
        mapping = BitOperator.from_permutation(source)
        assert mapping.invert().apply(mapping.apply(value)) == value

    @given(source=permutations)
    @settings(max_examples=30, deadline=None)
    def test_bijective_on_small_space(self, source):
        mapping = BitOperator.from_permutation(source)
        space = np.arange(1 << WIDTH, dtype=np.uint64)
        mapped = mapping.apply(space)
        assert np.unique(mapped).size == space.size

    def test_compose(self):
        rng = np.random.default_rng(3)
        outer = BitOperator.from_permutation(rng.permutation(WIDTH))
        inner = BitOperator.from_permutation(rng.permutation(WIDTH))
        composed = outer.compose(inner)
        value = 0xBEEF & ((1 << WIDTH) - 1)
        assert composed.apply(value) == outer.apply(inner.apply(value))

    def test_compose_width_mismatch(self):
        with pytest.raises(MappingError):
            identity_mapping(4).compose(identity_mapping(5))

    def test_as_matrix_matches_apply(self):
        rng = np.random.default_rng(11)
        mapping = BitOperator.from_permutation(rng.permutation(8))
        linear = BitOperator(mapping.matrix)
        for value in rng.integers(0, 256, 16):
            assert linear.apply(int(value)) == mapping.apply(int(value))

    def test_hash_and_eq(self):
        a = identity_mapping(6)
        b = BitOperator.from_permutation(np.arange(6))
        assert a == b and hash(a) == hash(b)
        assert identity_mapping(6) is a  # one shared operator per width


class TestLinearMapping:
    """The XOR/hash family: a GF(2) matrix ``BitOperator``."""

    def test_identity_matrix(self):
        mapping = BitOperator(np.eye(8, dtype=np.uint8))
        assert mapping.is_identity()
        assert mapping.apply(0xA5) == 0xA5

    def test_xor_fold(self):
        # HA bit 0 = PA bit 0 XOR PA bit 3
        matrix = np.eye(4, dtype=np.uint8)
        matrix[0, 3] = 1
        mapping = BitOperator(matrix)
        assert mapping.apply(0b1000) == 0b1001
        assert mapping.apply(0b1001) == 0b1000
        assert mapping.apply(0b0001) == 0b0001

    def test_singular_rejected(self):
        matrix = np.zeros((3, 3), dtype=np.uint8)
        matrix[0, 0] = matrix[1, 0] = matrix[2, 2] = 1
        operator = BitOperator(matrix)
        assert not operator.is_bijective()
        with pytest.raises(MappingError):
            operator.invert()

    def test_non_square_rejected(self):
        with pytest.raises(MappingError):
            BitOperator(np.ones((2, 3), dtype=np.uint8))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_invertible_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        width = 10
        # Random unit upper-triangular matrices are always invertible.
        matrix = np.triu(rng.integers(0, 2, (width, width)), 1).astype(np.uint8)
        np.fill_diagonal(matrix, 1)
        mapping = BitOperator(matrix)
        inverse = mapping.invert()
        values = rng.integers(0, 1 << width, 32, dtype=np.uint64)
        roundtrip = inverse.apply(mapping.apply(values))
        np.testing.assert_array_equal(roundtrip, values)

    def test_bijective_exhaustive(self):
        matrix = np.eye(8, dtype=np.uint8)
        matrix[0, 5] = matrix[1, 6] = matrix[2, 7] = 1
        mapping = BitOperator(matrix)
        space = np.arange(256, dtype=np.uint64)
        assert np.unique(mapping.apply(space)).size == 256

    def test_scalar_vs_vector(self):
        matrix = np.eye(6, dtype=np.uint8)
        matrix[2, 5] = 1
        mapping = BitOperator(matrix)
        values = np.arange(64, dtype=np.uint64)
        vector = mapping.apply(values)
        scalars = [mapping.apply(int(v)) for v in values]
        np.testing.assert_array_equal(vector, scalars)


class TestFieldSources:
    def test_channel_takes_named_bits(self):
        layout = small_layout()
        mapping = mapping_from_field_sources(layout, {"channel": [9, 10, 11]})
        channel_field = layout["channel"]
        source = mapping.permutation_source()
        assert source[channel_field.shift : channel_field.end].tolist() == [
            9,
            10,
            11,
        ]

    def test_is_permutation(self):
        layout = small_layout()
        mapping = mapping_from_field_sources(layout, {"channel": [13, 14, 15]})
        assert mapping.is_permutation()
        assert sorted(mapping.permutation_source().tolist()) == list(
            range(layout.width)
        )

    def test_wrong_count_rejected(self):
        with pytest.raises(MappingError):
            mapping_from_field_sources(small_layout(), {"channel": [1, 2]})

    def test_double_assignment_rejected(self):
        with pytest.raises(MappingError):
            mapping_from_field_sources(
                small_layout(), {"channel": [9, 9, 10]}
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(MappingError):
            mapping_from_field_sources(small_layout(), {"channel": [1, 2, 99]})
