"""Chunk Mapping Table (CMT) — the small SRAM holding per-chunk mappings.

Section 5.3: a two-level table.  The first level has one entry per chunk
and stores only an 8-bit *mapping index*; the second level stores the
actual 60-bit AMU configurations for (up to) 256 concurrently-live
mappings.  For a 128 GB socket with 2 MB chunks that is 64 Ki x 8 b +
256 x 60 b = 67.94 KB, versus 491 KB for a flat table — the storage
comparison this module reproduces analytically.

The OS programs the CMT through a memory-mapped driver interface; the
model counts those writes so the kernel substrate can be audited.
"""

from __future__ import annotations

import numpy as np

from repro.core.amu import AddressMappingUnit
from repro.errors import CMTError

__all__ = ["ChunkMappingTable", "cmt_storage_report"]

CMT_LOOKUP_LATENCY_NS = 6.0  # on-chip SRAM, vs >130 ns HBM access (Section 5.3)


class ChunkMappingTable:
    """Two-level chunk-to-mapping table.

    Index 0 is pre-interned as the identity window permutation, so an
    unconfigured chunk behaves exactly like the fixed-mapping baseline.
    """

    def __init__(
        self,
        num_chunks: int,
        window_bits: int,
        max_mappings: int = 256,
    ):
        if num_chunks <= 0:
            raise CMTError("need at least one chunk")
        if max_mappings < 1:
            raise CMTError("need at least one mapping slot")
        self.num_chunks = num_chunks
        self.max_mappings = max_mappings
        self.amu = AddressMappingUnit(window_bits)
        self._chunk_table = np.zeros(num_chunks, dtype=np.uint16)
        self._configs: list[np.ndarray] = []
        self._intern: dict[tuple[int, ...], int] = {}
        self.driver_writes = 0
        self.intern_mapping(np.arange(window_bits))  # index 0 = identity

    # -- second level: mapping configurations ----------------------------
    def intern_mapping(self, window_perm) -> int:
        """Store a window permutation, deduplicated; return its index.

        Every process shares this one table (Section 7.4); raises
        :class:`~repro.errors.CMTError` once ``max_mappings`` distinct
        configurations are live.
        """
        perm = self.amu.validate(window_perm)
        key = tuple(perm.tolist())
        if key in self._intern:
            return self._intern[key]
        if len(self._configs) >= self.max_mappings:
            raise CMTError(
                f"CMT mapping table full ({self.max_mappings} concurrent mappings)"
            )
        index = len(self._configs)
        # Store a private copy: the caller (and a shadow table interning
        # the same array) must not alias the SRAM contents.
        self._configs.append(perm.copy())
        self._intern[key] = index
        self.driver_writes += 1
        return index

    @property
    def live_mappings(self) -> int:
        """Number of interned mapping configurations (incl. identity)."""
        return len(self._configs)

    def config_of(self, mapping_index: int) -> np.ndarray:
        """The window permutation stored at a second-level entry."""
        if not 0 <= mapping_index < len(self._configs):
            raise CMTError(f"unknown mapping index {mapping_index}")
        return self._configs[mapping_index].copy()

    # -- first level: per-chunk indices -----------------------------------
    def set_chunk(self, chunk_no: int, mapping_index: int) -> None:
        """Driver write: bind a chunk to an interned mapping."""
        if not 0 <= chunk_no < self.num_chunks:
            raise CMTError(f"chunk {chunk_no} outside table")
        if not 0 <= mapping_index < len(self._configs):
            raise CMTError(f"mapping index {mapping_index} not interned")
        self._chunk_table[chunk_no] = mapping_index
        self.driver_writes += 1

    def mapping_index_of(self, chunk_no):
        """Look up mapping indices for chunk numbers (scalar or array)."""
        if isinstance(chunk_no, np.ndarray):
            if chunk_no.size and int(chunk_no.max()) >= self.num_chunks:
                raise CMTError("chunk number outside table")
            return self._chunk_table[chunk_no.astype(np.int64)]
        if not 0 <= int(chunk_no) < self.num_chunks:
            raise CMTError(f"chunk {chunk_no} outside table")
        return int(self._chunk_table[int(chunk_no)])

    def reset_chunk(self, chunk_no: int) -> None:
        """Return a chunk to the identity mapping (chunk freed)."""
        self.set_chunk(chunk_no, 0)

    # -- RAS: shadow compare, rollback and fault hooks ---------------------
    def diff(self, shadow: "ChunkMappingTable") -> dict:
        """Where this table's SRAM disagrees with a shadow copy.

        Returns ``{"entries": [chunk_no, ...], "configs": [index, ...]}``
        — the first-level entries and second-level configurations that
        differ.  Both tables must have the same shape; the shadow is
        expected to have seen the same driver writes.
        """
        if (
            shadow.num_chunks != self.num_chunks
            or shadow.live_mappings != self.live_mappings
        ):
            raise CMTError("shadow CMT shape does not match")
        entries = np.nonzero(self._chunk_table != shadow._chunk_table)[0]
        configs = [
            index
            for index in range(len(self._configs))
            if not np.array_equal(self._configs[index], shadow._configs[index])
        ]
        return {"entries": [int(c) for c in entries], "configs": configs}

    def restore_from(self, shadow: "ChunkMappingTable") -> int:
        """Roll corrupted SRAM back to a shadow copy's contents.

        Returns the number of repaired words (entries + configs); each
        counts as one driver write.  The intern map is rebuilt, since
        corruption may have invalidated its keys.
        """
        delta = self.diff(shadow)
        repaired = len(delta["entries"]) + len(delta["configs"])
        self._chunk_table = shadow._chunk_table.copy()
        self._configs = [config.copy() for config in shadow._configs]
        self._intern = {
            tuple(config.tolist()): index
            for index, config in enumerate(self._configs)
        }
        self.driver_writes += repaired
        return repaired

    def flip_entry_bit(self, chunk_no: int, bit: int) -> None:
        """Fault-injection hook: flip one bit of a first-level entry.

        Models an SRAM upset — no driver write is counted and the
        intern map is untouched.  The resulting index may be valid-but-
        wrong (silent rebinding) or out of range (caught by audits).
        """
        if not 0 <= chunk_no < self.num_chunks:
            raise CMTError(f"chunk {chunk_no} outside table")
        if not 0 <= bit < 16:
            raise CMTError(f"entry bit {bit} outside storage width")
        self._chunk_table[chunk_no] ^= np.uint16(1 << bit)

    def flip_config_bit(self, mapping_index: int, lane: int, bit: int) -> None:
        """Fault-injection hook: flip one bit of a second-level config.

        ``lane`` selects one column selector of the stored permutation.
        The corrupted value may stop being a permutation (caught by the
        window-permutation audit) or alias another one.  The intern map
        deliberately goes stale — hardware has no intern map; a
        subsequent :meth:`restore_from` rebuilds it.
        """
        if not 0 <= mapping_index < len(self._configs):
            raise CMTError(f"unknown mapping index {mapping_index}")
        perm = self._configs[mapping_index]
        if not 0 <= lane < perm.size:
            raise CMTError(f"config lane {lane} outside window")
        if not 0 <= bit < 16:
            raise CMTError(f"config bit {bit} outside selector width")
        perm[lane] ^= 1 << bit

    # -- storage accounting (Section 5.3) ----------------------------------
    @property
    def index_bits(self) -> int:
        """Width of a first-level entry (8 bits for 256 mappings)."""
        return max(1, (self.max_mappings - 1).bit_length())

    def storage_bits_two_level(self) -> int:
        """SRAM bits for the paper's two-level organisation."""
        return (
            self.num_chunks * self.index_bits
            + self.max_mappings * self.amu.config_bits
        )

    def storage_bits_flat(self) -> int:
        """SRAM bits for the naive one-table alternative."""
        return self.num_chunks * self.amu.config_bits

    @property
    def lookup_latency_ns(self) -> float:
        """On-chip SRAM lookup latency (Section 5.3: 6 ns)."""
        return CMT_LOOKUP_LATENCY_NS


def cmt_storage_report(
    memory_bytes: int = 128 * 1024**3,
    chunk_bytes: int = 2 * 1024**2,
    window_bits: int = 15,
    max_mappings: int = 256,
) -> dict[str, float]:
    """Reproduce the Section 5.3 storage math (67.94 KB vs 491 KB flat).

    Defaults describe the paper's sizing example: a 128 GB socket.
    """
    table = ChunkMappingTable(
        num_chunks=memory_bytes // chunk_bytes,
        window_bits=window_bits,
        max_mappings=max_mappings,
    )
    two_level = table.storage_bits_two_level()
    flat = table.storage_bits_flat()
    return {
        "num_chunks": table.num_chunks,
        "index_bits": table.index_bits,
        "config_bits": table.amu.config_bits,
        "two_level_kb": two_level / 8 / 1000,
        "flat_kb": flat / 8 / 1000,
        "saving_factor": flat / two_level,
        "lookup_latency_ns": table.lookup_latency_ns,
    }
