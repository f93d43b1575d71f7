"""The pre-refactor translate and decode paths, kept as test oracles.

Before every mapping became a compiled :mod:`repro.core.bitmatrix`
operator, a bit-permutation mapping's ``apply`` made one shift/mask
pass per HA bit and an XOR (linear) mapping's ``apply`` took a popcount
parity per row; before decode plans, ``decode_trace`` extracted every
layout field from a full HA array.  Those loops are kept here verbatim,
outside the package: :func:`repro.hbm.decode.decode_translated` must
give the same fields, bit for bit, for every translator kind.  The
oracle reads only the raw inputs — a chunk's window permutation from
the CMT, a global operator's matrix — never a compiled bit program.
"""

from __future__ import annotations

import numpy as np

from repro.core.sdam import SDAMController
from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace


def _reference_apply_permutation(source: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """Old permutation ``apply``: one shift/mask pass per HA bit."""
    ha = np.zeros_like(pa)
    for ha_bit in range(source.size):
        pa_bit = int(source[ha_bit])
        if pa_bit == ha_bit:
            ha |= pa & np.uint64(1 << ha_bit)
        else:
            bit = (pa >> np.uint64(pa_bit)) & np.uint64(1)
            ha |= bit << np.uint64(ha_bit)
    return ha


def _reference_apply_linear(row_masks: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """Old linear ``apply``: per-row popcount parity."""
    ha = np.zeros_like(pa)
    for ha_bit in range(row_masks.size):
        mask = row_masks[ha_bit]
        if mask == 0:
            continue
        v = (pa & mask).copy()
        for shift in (32, 16, 8, 4, 2, 1):
            v ^= v >> np.uint64(shift)
        ha |= (v & np.uint64(1)) << np.uint64(ha_bit)
    return ha


def _row_masks(matrix: np.ndarray) -> np.ndarray:
    return np.array(
        [
            int("".join("1" if b else "0" for b in row[::-1]), 2)
            for row in matrix
        ],
        dtype=np.uint64,
    )


def _reference_decode(ha: np.ndarray, config: HBMConfig) -> DecodedTrace:
    """Old ``decode_trace``: layout field extraction on a full HA array."""
    layout = config.layout()
    fields = layout.decode(ha)
    channel = fields["channel"].astype(np.int64)
    bank = fields["bank"].astype(np.int64)
    return DecodedTrace(
        channel=channel,
        bank=bank,
        row=fields["row"].astype(np.int64),
        column=fields["column"].astype(np.int64),
        global_bank=channel * config.banks_per_channel + bank,
    )


def _make_reference_translate(translator):
    """The pre-refactor translate path for either translator kind."""
    if isinstance(translator, SDAMController):
        controller = translator
        low, high = controller.geometry.window_slice()

        def translate(pa: np.ndarray) -> np.ndarray:
            controller.geometry.check_address(pa)
            chunk_no = controller.geometry.chunk_number(pa)
            mapping_idx = controller.cmt.mapping_index_of(np.asarray(chunk_no))
            ha = pa.copy()
            for idx in np.unique(mapping_idx):
                if idx == 0:
                    continue
                select = mapping_idx == idx
                source = np.arange(controller.geometry.address_bits)
                source[low:high] = controller.cmt.config_of(int(idx)) + low
                ha[select] = _reference_apply_permutation(source, pa[select])
            return ha

        return translate
    operator = translator.operator
    if operator.is_permutation():
        source = np.nonzero(operator.matrix)[1]
        return lambda pa: _reference_apply_permutation(source, pa)
    row_masks = _row_masks(operator.matrix)
    return lambda pa: _reference_apply_linear(row_masks, pa)
