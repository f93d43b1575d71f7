"""GF(2) bit-operator algebra — the one substrate for address math.

Every mapping the paper evaluates (direct, Xilinx-style shuffles, BSM
permutations, XOR/hash folds, SDAM's per-chunk window permutations) and
the controller's final field extraction are *bit-linear* transforms over
GF(2): output bit ``i`` is the XOR of a fixed set of input bits.  This
module gives that observation teeth:

* :class:`BitOperator` — a square, invertible-checkable GF(2) matrix
  with ``compose``, ``invert``, equality and bijectivity checks;
* :class:`BitProjection` — a rectangular operator (a row slice of a
  :class:`BitOperator`), which is exactly what "extract the channel
  field of the mapped address" is.

Both compile to a small vectorised *bit program* ahead of time:

* rows with a single source bit are grouped **by shift distance** — all
  output bits whose source sits ``delta`` positions away are moved with
  one ``(x >> delta) & mask`` pass, so the identity costs one
  instruction and a typical BSM permutation a handful, instead of one
  pass per bit;
* rows with multiple source bits (the hash/XOR family) are evaluated
  column-wise: each contributing input bit broadcasts into the rows it
  feeds with one multiply-XOR pass, so a sparse fold costs ~#fold-terms
  passes rather than #rows popcounts.

Composing a mapping operator with a field projection therefore *fuses*
PA→HA translation and HA→(channel, bank, row, column) decode into one
pass with no intermediate hardware-address array — the hot path of
every sweep cell.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError

__all__ = ["BitOperator", "BitProjection", "gf2_inverse", "gf2_matmul"]


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2) (XOR-accumulated AND)."""
    if a.shape[1] != b.shape[0]:
        raise MappingError(
            f"cannot multiply GF(2) matrices {a.shape} x {b.shape}"
        )
    return (a.astype(np.uint8) @ b.astype(np.uint8)) & 1


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(2) matrix; raise MappingError if singular."""
    n = matrix.shape[0]
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot_rows = np.nonzero(work[col:, col])[0]
        if pivot_rows.size == 0:
            raise MappingError("GF(2) matrix is singular (mapping not 1-to-1)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        other = np.nonzero(work[:, col])[0]
        other = other[other != col]
        work[other] ^= work[col]
        inverse[other] ^= inverse[col]
    return inverse


class _BitProgram:
    """A compiled GF(2) matrix application: shift/mask + broadcast-XOR ops.

    ``shift_ops`` move all single-source rows sharing one source-to-
    destination distance at once; ``xor_ops`` broadcast one input bit
    into every multi-source row it feeds.  The two groups touch disjoint
    output bits, so both accumulate into one result word.
    """

    __slots__ = ("shift_ops", "xor_ops", "in_width", "out_width")

    def __init__(self, matrix: np.ndarray):
        out_width, in_width = matrix.shape
        if in_width > 64 or out_width > 64:
            raise MappingError("bit operators are limited to 64-bit words")
        self.in_width = in_width
        self.out_width = out_width
        single_by_delta: dict[int, int] = {}
        multi_rows: list[int] = []
        for row in range(out_width):
            sources = np.nonzero(matrix[row])[0]
            if sources.size == 1:
                delta = int(sources[0]) - row
                single_by_delta[delta] = single_by_delta.get(delta, 0) | (
                    1 << row
                )
            elif sources.size > 1:
                multi_rows.append(row)
        self.shift_ops = [
            (delta, np.uint64(mask))
            for delta, mask in sorted(single_by_delta.items())
        ]
        xor_by_source: dict[int, int] = {}
        for row in multi_rows:
            for src in np.nonzero(matrix[row])[0]:
                src = int(src)
                xor_by_source[src] = xor_by_source.get(src, 0) | (1 << row)
        self.xor_ops = [
            (np.uint64(src), np.uint64(mask))
            for src, mask in sorted(xor_by_source.items())
        ]

    def run(self, value: np.ndarray) -> np.ndarray:
        """Apply the program to a uint64 array (any shape)."""
        out = np.zeros_like(value)
        for delta, mask in self.shift_ops:
            if delta >= 0:
                out |= (value >> np.uint64(delta)) & mask
            else:
                out |= (value << np.uint64(-delta)) & mask
        one = np.uint64(1)
        for src, mask in self.xor_ops:
            out ^= ((value >> src) & one) * mask
        return out

    @property
    def num_ops(self) -> int:
        """Vector passes per application (the cost model tests assert on)."""
        return len(self.shift_ops) + len(self.xor_ops)


class _BitLinear:
    """Shared behaviour of square operators and rectangular projections."""

    _matrix: np.ndarray
    _program: _BitProgram

    @property
    def matrix(self) -> np.ndarray:
        """Copy of the GF(2) matrix (rows = output bits)."""
        return self._matrix.copy()

    @property
    def in_width(self) -> int:
        """Input word width in bits."""
        return self._program.in_width

    @property
    def out_width(self) -> int:
        """Output word width in bits."""
        return self._program.out_width

    @property
    def num_ops(self) -> int:
        """Compiled vector passes per application."""
        return self._program.num_ops

    def apply(self, value):
        """Apply to scalar or array input; scalars come back as ``int``."""
        if np.isscalar(value) or isinstance(value, int):
            arr = np.asarray([value], dtype=np.uint64)
            return int(self._program.run(arr)[0])
        arr = np.asarray(value)
        if arr.dtype != np.uint64:
            arr = arr.astype(np.uint64)
        return self._program.run(arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _BitLinear):
            return NotImplemented
        return self._matrix.shape == other._matrix.shape and bool(
            np.array_equal(self._matrix, other._matrix)
        )

    def __hash__(self) -> int:
        return hash((self._matrix.shape, self._matrix.tobytes()))


class BitProjection(_BitLinear):
    """A rectangular GF(2) operator: ``out_width`` bits of a wider word.

    The fused decode path is built from these: *"channel bits of the
    mapped address"* is the mapping operator with only the channel rows
    kept, re-based to bit 0.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.uint8) & 1
        if matrix.ndim != 2:
            raise MappingError("projection matrix must be 2-D")
        self._matrix = matrix
        self._program = _BitProgram(matrix)

    def __repr__(self) -> str:
        return (
            f"BitProjection({self.out_width}x{self.in_width} bits, "
            f"{self.num_ops} ops)"
        )


class BitOperator(_BitLinear):
    """A square GF(2) bit-linear operator over ``width``-bit words.

    ``matrix[i, j] == 1`` means input bit ``j`` contributes (by XOR) to
    output bit ``i``.  This is the one PA-to-HA mapping type.
    Construction does *not* require invertibility — use
    :meth:`is_permutation` / :meth:`is_bijective` / :meth:`invert` where
    the Section 4 guarantee matters: :meth:`from_permutation`,
    :func:`~repro.core.hashing.hash_mapping` and
    :class:`~repro.core.sdam.GlobalMappingTranslator` enforce it.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.uint8) & 1
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MappingError("operator matrix must be square")
        self._matrix = matrix
        self._program = _BitProgram(matrix)

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, width: int) -> "BitOperator":
        """The do-nothing operator."""
        if width <= 0:
            raise MappingError("operator width must be positive")
        return cls(np.eye(width, dtype=np.uint8))

    @classmethod
    def from_permutation(cls, source) -> "BitOperator":
        """Operator for a bit permutation: out bit ``i`` = in bit
        ``source[i]``."""
        source = np.asarray(source, dtype=np.int64)
        width = source.size
        if (
            source.ndim != 1
            or width == 0
            or sorted(source.tolist()) != list(range(width))
        ):
            raise MappingError(
                f"source is not a permutation of 0..{width - 1}: "
                f"{source.tolist()}"
            )
        matrix = np.zeros((width, width), dtype=np.uint8)
        matrix[np.arange(width), source] = 1
        return cls(matrix)

    @classmethod
    def from_xor_terms(
        cls, width: int, terms: dict[int, list[int]]
    ) -> "BitOperator":
        """Identity plus XOR folds: out bit ``i`` also XORs in
        ``terms[i]``."""
        matrix = np.eye(width, dtype=np.uint8)
        for row, extras in terms.items():
            if not 0 <= row < width:
                raise MappingError(f"fold target bit {row} out of range")
            for src in extras:
                if not 0 <= src < width:
                    raise MappingError(f"fold source bit {src} out of range")
                matrix[row, src] ^= 1
        return cls(matrix)

    @property
    def width(self) -> int:
        """Word width in bits (square operator)."""
        return self._program.in_width

    def __repr__(self) -> str:
        kind = "perm" if self.is_permutation() else "linear"
        return (
            f"BitOperator(width={self.width}, {kind}, {self.num_ops} ops)"
        )

    # -- algebra -----------------------------------------------------------
    def compose(self, inner: "BitOperator") -> "BitOperator":
        """The operator equivalent to ``self(inner(x))``."""
        if inner.width != self.width:
            raise MappingError("cannot compose operators of different widths")
        return BitOperator(gf2_matmul(self._matrix, inner._matrix))

    def invert(self) -> "BitOperator":
        """The inverse operator; raises MappingError if singular."""
        return BitOperator(gf2_inverse(self._matrix))

    def project(self, shift: int, width: int) -> BitProjection:
        """Rows ``[shift, shift + width)`` re-based to output bit 0.

        ``op.project(f.shift, f.width).apply(pa)`` is the value of field
        ``f`` of the *mapped* address — translation and field extraction
        in one compiled program.
        """
        if width <= 0:
            raise MappingError("projection width must be positive")
        if not 0 <= shift <= self.width - width:
            raise MappingError(
                f"projection [{shift}, {shift + width}) outside "
                f"{self.width}-bit operator"
            )
        return BitProjection(self._matrix[shift : shift + width])

    # -- predicates --------------------------------------------------------
    def is_identity(self) -> bool:
        """True when the matrix is the identity."""
        return bool(
            np.array_equal(self._matrix, np.eye(self.width, dtype=np.uint8))
        )

    def is_permutation(self) -> bool:
        """True when every output bit copies exactly one input bit."""
        return bool(
            (self._matrix.sum(axis=1) == 1).all()
            and (self._matrix.sum(axis=0) == 1).all()
        )

    def is_bijective(self) -> bool:
        """True when the operator is invertible (no PA/HA aliasing)."""
        try:
            gf2_inverse(self._matrix)
        except MappingError:
            return False
        return True

    def permutation_source(self) -> np.ndarray:
        """The ``source`` vector (out bit -> in bit); raises if not a
        permutation."""
        if not self.is_permutation():
            raise MappingError("operator is not a bit permutation")
        return np.nonzero(self._matrix)[1].astype(np.int64)
