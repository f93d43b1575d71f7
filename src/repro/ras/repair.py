"""Repair composition: mappings whose preimage of a fault is retirable.

The key observation (and the reason software-defined address mapping
doubles as a RAS mechanism): a faulty device region — one stuck row,
one dead bank, half the channels — is a *cube* in hardware-address
space, a set of fixed bit values inside the chunk-offset window.  Any
window permutation maps some set of chunk offsets onto that cube; the
repair composer searches for a permutation whose preimage collapses
into as few — and as empty — physical pages as possible.  Those pages
are retired, live ones are relocated first, and the chunk migrates to
the composed mapping, after which no allocatable address can reach the
fault.

Structured candidates route the cube's *free* (varying) output bits to
the lowest window inputs, so the preimage spans the fewest pages — one
page for a stuck row, two for a dead bank — while seeded shuffles of
the fixed-bit assignment move *which* pages those are until they land
on free ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitmatrix import BitOperator
from repro.core.chunks import ChunkGeometry
from repro.errors import DeviceFaultError
from repro.hbm.config import HBMConfig

__all__ = [
    "FaultCube",
    "compose_repair",
    "cube_for",
    "cube_offsets",
    "preimage_pages",
    "row_fault_chunk",
]

#: Candidate permutations :func:`compose_repair` scores per search.
REPAIR_ATTEMPTS = 48


@dataclass(frozen=True)
class FaultCube:
    """A faulty device region as fixed bits of the HA chunk window.

    ``fixed`` is a tuple of ``(window_bit, value)`` pairs: a hardware
    address (within any chunk) lies on the cube iff its window value
    carries exactly those bits.  ``chunk_no`` restricts the cube to one
    chunk (a stuck row lives in a single chunk because the high row
    bits come from the untouched chunk number); ``None`` means every
    chunk is affected.
    """

    fixed: tuple[tuple[int, int], ...]
    label: str = ""
    chunk_no: int | None = None

    @property
    def mask(self) -> int:
        """OR of the fixed window bits."""
        return sum(1 << bit for bit, _value in self.fixed)

    @property
    def value(self) -> int:
        """The fixed bits' values, in place."""
        return sum(value << bit for bit, value in self.fixed)

    def matches(self, window_values: np.ndarray) -> np.ndarray:
        """Boolean mask of window values lying on the cube."""
        window_values = np.asarray(window_values)
        return (window_values & self.mask) == self.value

    def applies_to(self, chunk_no: int) -> bool:
        """True if the cube affects the given chunk."""
        return self.chunk_no is None or self.chunk_no == int(chunk_no)


def _window_bits_of_field(
    config: HBMConfig, geometry: ChunkGeometry, name: str
) -> list[tuple[int, int]]:
    """``(window_bit, field_bit)`` pairs of a layout field's in-window part."""
    layout = config.layout()
    fld = layout[name]
    low, high = geometry.window_slice()
    pairs = []
    for field_bit in range(fld.width):
        address_bit = fld.shift + field_bit
        if low <= address_bit < high:
            pairs.append((address_bit - low, field_bit))
    return pairs


def _fix_field(
    config: HBMConfig,
    geometry: ChunkGeometry,
    name: str,
    value: int,
) -> list[tuple[int, int]]:
    return [
        (window_bit, (value >> field_bit) & 1)
        for window_bit, field_bit in _window_bits_of_field(
            config, geometry, name
        )
    ]


def row_fault_chunk(
    config: HBMConfig, geometry: ChunkGeometry, row: int
) -> int:
    """The single chunk a stuck row lives in.

    The row field's high bits lie above the chunk window, i.e. they
    *are* (part of) the chunk number, which translation preserves — so
    one full row index pins one chunk.
    """
    layout = config.layout()
    row_shift = layout["row"].shift
    in_window = geometry.chunk_shift - row_shift
    if in_window <= 0:
        raise DeviceFaultError("row field lies entirely above the window")
    return int(row) >> in_window


def cube_for(
    config: HBMConfig,
    geometry: ChunkGeometry,
    kind: str,
    channel: int | None = None,
    bank: int | None = None,
    row: int | None = None,
) -> FaultCube:
    """The fault cube for a physical fault kind.

    ``row`` faults carry the affected chunk number; ``bank`` and
    ``channel`` cubes span every chunk.
    """
    if kind == "row":
        fixed = (
            _fix_field(config, geometry, "channel", channel)
            + _fix_field(config, geometry, "bank", bank)
            + _fix_field(config, geometry, "row", row)
        )
        return FaultCube(
            fixed=tuple(sorted(fixed)),
            label=f"row ch{channel} b{bank} r{row}",
            chunk_no=row_fault_chunk(config, geometry, row),
        )
    if kind == "bank":
        fixed = _fix_field(config, geometry, "channel", channel) + _fix_field(
            config, geometry, "bank", bank
        )
        return FaultCube(
            fixed=tuple(sorted(fixed)), label=f"bank ch{channel} b{bank}"
        )
    if kind == "channel":
        fixed = _fix_field(config, geometry, "channel", channel)
        return FaultCube(fixed=tuple(sorted(fixed)), label=f"channel {channel}")
    raise DeviceFaultError(f"unknown physical fault kind {kind!r}")


def cube_offsets(
    operator: BitOperator, cube: FaultCube, window_bits: int
) -> np.ndarray:
    """PA-side window offsets that ``operator`` maps onto the cube."""
    offsets = np.arange(1 << window_bits, dtype=np.uint64)
    out = np.asarray(operator.apply(offsets))
    return offsets[cube.matches(out)]


def preimage_pages(
    operator: BitOperator, cube: FaultCube, geometry: ChunkGeometry
) -> list[int]:
    """Chunk-relative page offsets whose lines can reach the cube."""
    offsets = cube_offsets(operator, cube, geometry.window_bits)
    page_low_bits = geometry.page_bits - geometry.line_bits
    return sorted({int(o) >> page_low_bits for o in offsets})


def _candidate_perms(geometry, cubes, rng):
    """Yield window permutations to score: structured first, then seeded.

    AMU semantics: ``perm[output_bit] = input_bit``.  The structured
    candidate for a cube sends the cube's free output bits to the
    lowest inputs (collapsing the preimage into the fewest pages);
    shuffling the fixed-bit inputs moves which pages those are.
    """
    window_bits = geometry.window_bits
    for primary in cubes:
        fixed_out = sorted(bit for bit, _v in primary.fixed)
        free_out = [b for b in range(window_bits) if b not in fixed_out]
        perm = np.empty(window_bits, dtype=np.int64)
        for position, out in enumerate(free_out):
            perm[out] = position
        remaining = list(range(len(free_out), window_bits))
        for out, inp in zip(fixed_out, remaining):
            perm[out] = inp
        yield perm.copy()
        for _ in range((REPAIR_ATTEMPTS - 1) // max(1, len(cubes))):
            shuffled = rng.permutation(remaining)
            for out, inp in zip(fixed_out, shuffled):
                perm[out] = inp
            yield perm.copy()
    # Unstructured fallback: occasionally a plain random permutation
    # scores better when several cubes constrain each other.
    for _ in range(REPAIR_ATTEMPTS // 4):
        yield rng.permutation(window_bits).astype(np.int64)


def compose_repair(
    geometry: ChunkGeometry,
    cubes,
    rng,
    live_pages=frozenset(),
) -> tuple[np.ndarray, list[int]]:
    """Search for a window permutation that quarantines every cube.

    Returns ``(window_perm, pages_to_retire)`` where the pages are the
    union of all cubes' preimages under the permutation.  Candidates
    are scored by ``(live pages hit, total pages)`` — live pages mean
    relocation work, total pages mean capacity cost — and the search
    stops early at a zero-relocation candidate.
    """
    cubes = list(cubes)
    if not cubes:
        raise DeviceFaultError("nothing to repair: no fault cubes")
    live_pages = set(int(p) for p in live_pages)
    best_perm = None
    best_pages: list[int] = []
    best_score = None
    for perm in _candidate_perms(geometry, cubes, rng):
        operator = BitOperator.from_permutation(perm)
        pages: set[int] = set()
        for cube in cubes:
            pages.update(preimage_pages(operator, cube, geometry))
        score = (len(pages & live_pages), len(pages))
        if best_score is None or score < best_score:
            best_score = score
            best_perm = perm
            best_pages = sorted(pages)
            if score[0] == 0 and len(cubes) == 1:
                break
    return best_perm, best_pages
