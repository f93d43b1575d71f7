"""Address Mapping Unit (AMU) — the crossbar that shuffles chunk-offset bits.

Section 5.2: the AMU realises bit-shuffle mappings with an n-by-n array
of switches (n = chunk-offset width, 15 in the prototype), with exactly
one closed switch per column.  Its configuration is therefore n integers
of ceil(log2 n) bits — 60 bits for n = 15 — which is what each
second-level CMT entry stores.

This module provides the functional model (a window permutation as a
window-width or a full-width bit operator), the configuration codec, and
the analytic area model behind Table 3.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry
from repro.errors import MappingError

__all__ = ["AddressMappingUnit", "amu_area_report"]

# Calibration constants for the Table 3 area model: a VU37P has ~1.3 M
# LUTs; one crossbar switch point (mux bit + config decode share) costs a
# handful of LUTs.  Chosen so 8 duplicated 15-bit AMUs land at the
# paper's ~0.5 % logic share.
VU37P_LUTS = 1_303_680
LUTS_PER_SWITCH = 3.6
AMU_DUPLICATES = 8  # the prototype replicates the AMU to sustain peak BW


class AddressMappingUnit:
    """Functional model of the n-bit crossbar.

    A *configuration* is a window permutation ``perm`` with HA-source
    semantics: output bit ``i`` of the window equals input bit
    ``perm[i]``.  The unit validates the one-closed-switch-per-column
    crossbar rule (i.e. ``perm`` is a permutation).
    """

    def __init__(self, window_bits: int):
        if window_bits < 2:
            raise MappingError("AMU window must be at least 2 bits")
        self.window_bits = window_bits

    # -- configuration codec --------------------------------------------
    @property
    def select_bits(self) -> int:
        """Bits per column selector: ceil(log2 n)."""
        return max(1, math.ceil(math.log2(self.window_bits)))

    @property
    def config_bits(self) -> int:
        """Total configuration width — 15 * 4 = 60 bits in the prototype."""
        return self.window_bits * self.select_bits

    def validate(self, perm) -> np.ndarray:
        """Enforce the one-closed-switch-per-column crossbar rule."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.size != self.window_bits or sorted(perm.tolist()) != list(
            range(self.window_bits)
        ):
            raise MappingError(
                f"AMU config must be a permutation of 0..{self.window_bits - 1}"
            )
        return perm

    def encode_config(self, perm) -> int:
        """Pack a permutation into the CMT's second-level entry format."""
        perm = self.validate(perm)
        word = 0
        for column, row in enumerate(perm.tolist()):
            word |= row << (column * self.select_bits)
        return word

    def decode_config(self, word: int) -> np.ndarray:
        """Unpack a CMT entry back into a permutation."""
        mask = (1 << self.select_bits) - 1
        perm = np.array(
            [
                (word >> (column * self.select_bits)) & mask
                for column in range(self.window_bits)
            ],
            dtype=np.int64,
        )
        return self.validate(perm)

    # -- datapath ---------------------------------------------------------
    def window_operator(self, perm) -> BitOperator:
        """The crossbar configuration as a window-width GF(2) operator."""
        return BitOperator.from_permutation(self.validate(perm))

    def full_mapping(
        self, perm, geometry: ChunkGeometry, address_bits: int | None = None
    ) -> BitOperator:
        """Lift a window permutation to a full-width PA-to-HA permutation.

        Bits below the window (byte-in-line offset) and above it (chunk
        number) pass through unchanged — the Section 4 correctness rule.
        """
        perm = self.validate(perm)
        low, high = geometry.window_slice()
        if high - low != self.window_bits:
            raise MappingError("geometry window does not match AMU width")
        width = address_bits if address_bits is not None else geometry.address_bits
        source = np.arange(width, dtype=np.int64)
        source[low:high] = perm + low
        return BitOperator.from_permutation(source)

    # -- area model (Table 3) ----------------------------------------------
    @property
    def switch_count(self) -> int:
        """n^2 crossbar switch points."""
        return self.window_bits * self.window_bits


def amu_area_report(
    window_bits: int = 15,
    duplicates: int = AMU_DUPLICATES,
    total_luts: int = VU37P_LUTS,
) -> dict[str, float]:
    """Analytic FPGA area model for the AMU (Table 3's ``AMU 0.5 %`` row)."""
    unit = AddressMappingUnit(window_bits)
    luts = unit.switch_count * LUTS_PER_SWITCH * duplicates
    return {
        "window_bits": window_bits,
        "switches_per_amu": unit.switch_count,
        "config_bits": unit.config_bits,
        "duplicates": duplicates,
        "luts": luts,
        "logic_fraction": luts / total_luts,
    }
