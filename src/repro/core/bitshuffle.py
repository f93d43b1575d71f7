"""Bit-shuffle mapping selection from bit-flip-rate profiles (BSM).

Following Akin et al. and Section 6.2 step (3) of the paper: given a
bit-flip-rate vector over the address bits of a trace, the bits that
flip most are routed to the channel field (they change between nearby
accesses, so they spread consecutive requests across channels), the next
most active feed the column field (row-buffer locality), and the calmest
bits become bank and row indices.

Two entry points:

* :func:`select_window_permutation` — for SDAM: permute only the
  chunk-offset window; returns the AMU configuration.
* :func:`select_global_mapping` — for the ``BS+BSM`` baseline: one
  whole-address permutation chosen from a workload-mix profile.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitfield import AddressLayout
from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry
from repro.errors import MappingError

__all__ = [
    "rank_bits_by_flip_rate",
    "select_window_permutation",
    "select_global_mapping",
]

# HA fields filled from the hottest PA bits down: channel selects get
# the hottest bits (spread temporally-adjacent requests across
# channels), columns the next (row-buffer locality).  The *bank* field
# then takes the highest-position leftover bits: within a chunk those
# distinguish co-resident allocations, so concurrently-accessed
# variables that share a mapping land in different banks instead of
# thrashing one row buffer.  Rows absorb the rest (the coldest bits).
FIELD_PRIORITY = ("channel", "column")
POSITIONAL_FIELDS = ("bank", "row")


def rank_bits_by_flip_rate(flip_rates: np.ndarray) -> np.ndarray:
    """Bit indices sorted hottest-first; ties broken toward lower bits.

    Lower bits win ties because they correspond to finer-grained
    interleaving, which can only help channel spreading.
    """
    flip_rates = np.asarray(flip_rates, dtype=np.float64)
    order = np.lexsort((np.arange(flip_rates.size), -flip_rates))
    return order


def _assign_fields(
    layout: AddressLayout,
    ranked_bits: np.ndarray,
    window_low: int,
    window_high: int,
    bank_by_position: bool = True,
) -> np.ndarray:
    """Fill window HA positions: hot bits to channel/column first.

    With ``bank_by_position`` (the chunked SDAM case) banks take the
    highest-position leftovers — those distinguish co-resident
    allocations, separating concurrent variables into different banks.
    Without it (whole-address mappings, where the top bits barely vary)
    banks and rows simply continue in flip-rate order.
    """
    source = np.arange(layout.width, dtype=np.int64)
    ranked = [int(b) for b in ranked_bits if window_low <= int(b) < window_high]
    if len(ranked) != window_high - window_low:
        raise MappingError("ranked bits do not cover the permutation window")
    positions_by_field: dict[str, list[int]] = {}
    for name in FIELD_PRIORITY + POSITIONAL_FIELDS:
        if name not in layout:
            continue
        positions_by_field[name] = [
            position
            for position in layout[name].bit_positions()
            if window_low <= position < window_high
        ]
    cursor = 0
    for name in FIELD_PRIORITY:
        for position in positions_by_field.get(name, []):
            source[position] = ranked[cursor]
            cursor += 1
    leftovers = ranked[cursor:]
    remaining = sorted(leftovers, reverse=True) if bank_by_position else list(leftovers)
    for name in POSITIONAL_FIELDS:
        for position in positions_by_field.get(name, []):
            source[position] = remaining.pop(0)
    # Window positions outside any known field (none in the canonical
    # layout) take whatever is left.
    for position in range(window_low, window_high):
        claimed = any(
            position in positions
            for positions in positions_by_field.values()
        )
        if not claimed:
            source[position] = remaining.pop(0)
    return source


def select_window_permutation(
    window_flip_rates: np.ndarray,
    layout: AddressLayout,
    geometry: ChunkGeometry,
) -> np.ndarray:
    """Choose the AMU window permutation for one access pattern.

    ``window_flip_rates`` has one entry per chunk-offset window bit
    (bit 0 of the vector = the lowest shuffleable address bit).
    Returns the window-relative permutation (HA window bit -> PA window
    bit) ready for :meth:`ChunkMappingTable.intern_mapping`.
    """
    low, high = geometry.window_slice()
    rates = np.asarray(window_flip_rates, dtype=np.float64)
    if rates.size != high - low:
        raise MappingError(
            f"expected {high - low} window flip rates, got {rates.size}"
        )
    full = np.zeros(layout.width, dtype=np.float64)
    full[low:high] = rates
    ranked = rank_bits_by_flip_rate(full)
    source = _assign_fields(layout, ranked, low, high)
    return source[low:high] - low


def select_global_mapping(
    flip_rates: np.ndarray,
    layout: AddressLayout,
    line_bits: int = 6,
) -> BitOperator:
    """Choose one whole-address bit-shuffle (the ``BS+BSM`` baseline).

    All bits above the byte-in-line offset may move.  ``flip_rates`` has
    one entry per address bit (entries below ``line_bits`` are ignored).
    """
    rates = np.asarray(flip_rates, dtype=np.float64)
    if rates.size != layout.width:
        raise MappingError(
            f"expected {layout.width} flip rates, got {rates.size}"
        )
    ranked = rank_bits_by_flip_rate(rates)
    source = _assign_fields(
        layout, ranked, line_bits, layout.width, bank_by_position=False
    )
    return BitOperator.from_permutation(source)
