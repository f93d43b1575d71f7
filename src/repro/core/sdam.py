"""SDAM controller: the PA-to-HA stage of the memory controller.

Two translator implementations share one interface:

* :class:`GlobalMappingTranslator` — the hardware-only baselines
  (``BS+DM``, ``BS+BSM``, ``BS+HM``): a single boot-time
  :class:`~repro.core.bitmatrix.BitOperator` applied to every physical
  address.
* :class:`SDAMController` — the paper's contribution: per-chunk mappings
  selected through the CMT and applied by the AMU, with the chunk number
  passing through unchanged (Section 4's correctness rule).

Both translate whole numpy traces at once, and both expose the fused
datapath hook :meth:`uniform_operator`: the one
:class:`~repro.core.bitmatrix.BitOperator` that maps every address of a
trace, or ``None`` when the trace spans several mappings.  The memory
side precomposes that operator with its field extraction so a trace goes
PA -> (channel, bank, row, column) in one vectorised pass with no
intermediate hardware-address array (see ``repro.hbm.decode``).

The SDAM path short-circuits when only the boot identity mapping is
live, applies a single compiled operator when a trace touches one
mapping, and otherwise tabulates each live mapping's crossbar — the
chunk-offset window is small (15 bits by default), so a mapping's AMU
truth table fits in one small array and a mixed-mapping trace
translates with a single gather instead of one masked pass per mapping.
"""

from __future__ import annotations

from functools import cache
from typing import Protocol

import numpy as np

from repro.core.amu import AddressMappingUnit
from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry
from repro.core.cmt import ChunkMappingTable
from repro.core.mapping import identity_mapping
from repro.errors import MappingError

__all__ = [
    "AddressTranslator",
    "GlobalMappingTranslator",
    "SDAMController",
    "identity_translator",
]


class AddressTranslator(Protocol):
    """Anything that can turn a PA trace into an HA trace."""

    def translate(self, pa: np.ndarray) -> np.ndarray:
        """Map physical addresses to hardware addresses."""
        ...  # pragma: no cover - protocol

    def uniform_operator(self, pa: np.ndarray) -> BitOperator | None:
        """The operator that maps every address of ``pa``, if one does.

        ``None`` means the trace spans several mappings.  Consumers fuse
        the operator with downstream bit math (decode) instead of
        materialising the hardware-address array.
        """
        ...  # pragma: no cover - protocol


class GlobalMappingTranslator:
    """A single fixed mapping for the whole physical address space.

    The operator must be one-to-one (Section 4).  A bit permutation
    passes on the cheap structural test; any other operator is inverted
    once, here, and a singular one raises :class:`MappingError`.
    """

    def __init__(self, operator: BitOperator):
        if not (operator.is_permutation() or operator.is_bijective()):
            raise MappingError(
                "global mapping is singular (mapping not 1-to-1)"
            )
        self.operator = operator

    def translate(self, pa: np.ndarray) -> np.ndarray:
        """Apply the boot-time mapping to a PA trace."""
        if not isinstance(pa, np.ndarray) or pa.dtype != np.uint64:
            pa = np.asarray(pa, dtype=np.uint64)
        return self.operator.apply(pa)

    def uniform_operator(self, pa: np.ndarray) -> BitOperator:
        """The boot-time mapping covers everything."""
        return self.operator

    def __repr__(self) -> str:
        return f"GlobalMappingTranslator({self.operator!r})"


@cache
def identity_translator(width: int) -> GlobalMappingTranslator:
    """The boot-time identity (``BS+DM``) translator, one per width.

    A translator holds no run state, so every baseline kernel and
    machine of one address width shares this one.
    """
    return GlobalMappingTranslator(identity_mapping(width))


class SDAMController:
    """CMT + AMU on the memory path.

    The controller owns the chunk-mapping table.  Software (the kernel
    substrate) registers window permutations and binds chunks to them;
    the datapath then translates traces chunk-by-chunk.
    """

    #: Widest chunk-offset window the controller will tabulate.  Beyond
    #: this the truth tables stop fitting in cache (and memory: 256
    #: mappings x 2^bits x 4 B) and the per-mapping group loop wins.
    LUT_MAX_WINDOW_BITS = 16

    def __init__(
        self,
        geometry: ChunkGeometry,
        max_mappings: int = 256,
    ):
        self.geometry = geometry
        self.amu = AddressMappingUnit(geometry.window_bits)
        self.cmt = ChunkMappingTable(
            num_chunks=geometry.num_chunks,
            window_bits=geometry.window_bits,
            max_mappings=max_mappings,
        )
        # Software's defensive copy of the CMT SRAM: every driver write
        # is mirrored here, never fault-injection hooks, so a RAS scrub
        # can diff the two and roll corruption back (Section 4's
        # correctness rule made self-checking).  Cheap — one extra
        # uint16 per chunk plus the interned configs.
        self.shadow_cmt = ChunkMappingTable(
            num_chunks=geometry.num_chunks,
            window_bits=geometry.window_bits,
            max_mappings=max_mappings,
        )
        # Full-width operators per mapping index.  CMT configurations are
        # immutable once interned (set_chunk rebinds chunks, never edits
        # a config) unless fault injection corrupts them — which must
        # call :meth:`invalidate_caches`.
        self._operators: dict[int, BitOperator] = {}
        # Crossbar truth tables, one row per interned mapping; rows are
        # appended as mappings arrive and never change afterwards.
        self._window_luts: np.ndarray | None = None
        # Fault-injection hook: mapping index -> the (valid but wrong)
        # window permutation the misprogrammed crossbar actually applies.
        self._misprogrammed: dict[int, np.ndarray] = {}

    # -- software-facing control interface ---------------------------------
    def register_mapping(self, window_perm) -> int:
        """Intern a chunk-offset window permutation.

        Returns the CMT index, which is also the mapping id software
        passes to ``mmap``.  The CMT validates the permutation (the
        crossbar rule) and raises :class:`MappingError` on a bad one.
        """
        index = self.cmt.intern_mapping(window_perm)
        self.shadow_cmt.intern_mapping(window_perm)
        return index

    def assign_chunk(self, chunk_no: int, mapping_id: int) -> None:
        """Bind a chunk to an interned mapping (a CMT driver write)."""
        self.cmt.set_chunk(chunk_no, mapping_id)
        self.shadow_cmt.set_chunk(chunk_no, mapping_id)

    def release_chunk(self, chunk_no: int) -> None:
        """Return a freed chunk to the identity mapping."""
        self.cmt.reset_chunk(chunk_no)
        self.shadow_cmt.reset_chunk(chunk_no)

    def operator_of(self, mapping_id: int) -> BitOperator:
        """The full-width permutation operator a mapping id realises
        (cached).

        A misprogrammed crossbar (see :meth:`misprogram_crossbar`)
        substitutes its wrong-but-valid permutation here — the datapath
        faithfully applies what the broken hardware would.
        """
        operator = self._operators.get(mapping_id)
        if operator is None:
            config = self._misprogrammed.get(mapping_id)
            if config is None:
                config = self.cmt.config_of(mapping_id)
            operator = self.amu.full_mapping(config, self.geometry)
            self._operators[mapping_id] = operator
        return operator

    # -- RAS hooks -----------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop derived translation state (operators, crossbar LUTs).

        Required after anything mutates CMT contents outside the driver
        interface — fault injection or a shadow rollback — since both
        caches assume interned configurations are immutable.
        """
        self._operators.clear()
        self._window_luts = None

    def misprogram_crossbar(self, mapping_id: int, wrong_perm) -> None:
        """Fault-injection hook: the AMU applies the wrong permutation.

        The CMT SRAM stays correct (a shadow compare sees nothing), but
        translations through ``mapping_id`` use ``wrong_perm`` — a
        *valid* window permutation, so every structural audit passes
        and only a translation spot check against the shadow-derived
        expectation can detect it.
        """
        perm = self.amu.validate(wrong_perm)
        if not 0 <= mapping_id < self.cmt.live_mappings:
            raise MappingError(f"unknown mapping index {mapping_id}")
        self._misprogrammed[mapping_id] = perm
        self.invalidate_caches()

    def reprogram_crossbar(self) -> int:
        """Repair hook: rewrite crossbar state from the CMT configs.

        Clears any misprogramming and rebuilds derived caches on
        demand.  Returns the number of entries that were wrong.
        """
        wrong = len(self._misprogrammed)
        self._misprogrammed.clear()
        self.invalidate_caches()
        return wrong

    def window_lut(self) -> np.ndarray | None:
        """Crossbar truth tables: ``lut[index, window] = shuffled window``.

        One row per live mapping (row 0 is the identity), materialising
        what the AMU crossbar computes combinationally in hardware.
        ``None`` when the window is too wide to tabulate
        (:attr:`LUT_MAX_WINDOW_BITS`).  Rows are appended lazily as
        mappings are interned; existing rows are immutable, so callers
        may hold a reference across driver writes.
        """
        window_bits = self.geometry.window_bits
        if window_bits > self.LUT_MAX_WINDOW_BITS:
            return None
        live = self.cmt.live_mappings
        if self._window_luts is None or self._window_luts.shape[0] < live:
            luts = np.empty((live, 1 << window_bits), dtype=np.uint32)
            start = 0
            if self._window_luts is not None:
                start = self._window_luts.shape[0]
                luts[:start] = self._window_luts
            # A crossbar is GF(2)-linear, so the image of a window is
            # the XOR of the images of its high and its low bits: each
            # row is built from two half tables of 2^(bits/2) entries.
            low_bits = (window_bits + 1) // 2
            low_values = np.arange(1 << low_bits, dtype=np.uint64)
            high_values = np.arange(
                1 << (window_bits - low_bits), dtype=np.uint64
            ) << np.uint64(low_bits)
            for index in range(start, live):
                config = self._misprogrammed.get(index)
                if config is None:
                    config = self.cmt.config_of(index)
                operator = self.amu.window_operator(config)
                low = operator.apply(low_values).astype(np.uint32)
                high = operator.apply(high_values).astype(np.uint32)
                np.bitwise_xor(
                    high[:, None],
                    low[None, :],
                    out=luts[index].reshape(high.size, low.size),
                )
            self._window_luts = luts
        return self._window_luts

    # -- datapath -----------------------------------------------------------
    def _split(
        self, pa: np.ndarray
    ) -> tuple[BitOperator | None, np.ndarray | None]:
        """``(operator, None)`` when one mapping covers ``pa``, else
        ``(None, mapping index per address)``."""
        if self.cmt.live_mappings == 1 or pa.size == 0:
            # Only the boot identity is interned: nothing can shuffle.
            return identity_mapping(self.geometry.address_bits), None
        chunk_no = self.geometry.chunk_number(pa)
        mapping_idx = self.cmt.mapping_index_of(np.asarray(chunk_no))
        first = int(mapping_idx.flat[0])
        if not np.any(mapping_idx != first):
            return self.operator_of(first), None
        return None, mapping_idx

    def uniform_operator(self, pa: np.ndarray) -> BitOperator | None:
        """The one mapping's operator when a PA trace touches only one."""
        if not isinstance(pa, np.ndarray) or pa.dtype != np.uint64:
            pa = np.asarray(pa, dtype=np.uint64)
        self.geometry.check_address(pa)
        return self._split(pa)[0]

    def translate(self, pa: np.ndarray) -> np.ndarray:
        """PA -> HA for a whole trace, chunk by chunk through the CMT.

        A trace under one mapping goes through that mapping's compiled
        operator; a mixed-mapping trace goes through the crossbar truth
        tables — one CMT gather, one LUT gather — with the masked
        per-mapping group loop kept as the wide-window fallback.
        """
        if not isinstance(pa, np.ndarray) or pa.dtype != np.uint64:
            pa = np.asarray(pa, dtype=np.uint64)
        self.geometry.check_address(pa)
        operator, mapping_idx = self._split(pa)
        if operator is not None:
            return pa.copy() if operator.is_identity() else operator.apply(pa)
        lut = self.window_lut()
        if lut is None:  # window too wide to tabulate: masked group loop
            ha = pa.copy()
            for idx in np.unique(mapping_idx):
                operator = self.operator_of(int(idx))
                if operator.is_identity():
                    continue
                select = mapping_idx == idx
                ha[select] = operator.apply(pa[select])
            return ha
        low, _high = self.geometry.window_slice()
        window_bits = self.geometry.window_bits
        window = (pa >> np.uint64(low)) & np.uint64((1 << window_bits) - 1)
        rows = mapping_idx.astype(np.int64) << np.int64(window_bits)
        shuffled = lut.reshape(-1)[rows | window.astype(np.int64)]
        keep = np.uint64(~(((1 << window_bits) - 1) << low) & (2**64 - 1))
        return (pa & keep) | (shuffled.astype(np.uint64) << np.uint64(low))

    def __repr__(self) -> str:
        return (
            f"SDAMController({self.geometry!r}, "
            f"live_mappings={self.cmt.live_mappings})"
        )
