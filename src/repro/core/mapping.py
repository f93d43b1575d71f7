"""Physical-address to hardware-address (PA-to-HA) mapping constructors.

The paper's memory controller transforms a flat physical address into the
3D hierarchical hardware address of channels/banks/rows (Section 2.2).
Every mapping it evaluates is a :class:`~repro.core.bitmatrix.BitOperator`
over GF(2):

* the *bit-shuffle* family (Akin et al., and the paper's AMU): HA bit
  ``i`` is a copy of one PA bit — a permutation operator, exactly what
  the AMU crossbar can realise;
* the *hashing* family (Liu et al., the ``BS+HM`` baseline): each HA bit
  is the XOR of a set of PA bits (:mod:`repro.core.hashing`).

Section 4 requires every mapping to be one-to-one ("one PA can map to
only one HA or vice versa"): :meth:`BitOperator.from_permutation`
rejects a non-permutation, and
:class:`~repro.core.sdam.GlobalMappingTranslator` rejects a singular
operator.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.core.bitfield import AddressLayout
from repro.core.bitmatrix import BitOperator
from repro.errors import MappingError

__all__ = ["identity_mapping", "mapping_from_field_sources"]


@cache
def identity_mapping(width: int) -> BitOperator:
    """The boot-time default (``BS+DM``): HA bit i = PA bit i.

    One shared operator per width (operators are immutable).
    """
    return BitOperator.identity(width)


def mapping_from_field_sources(
    layout: AddressLayout, sources: dict[str, list[int]]
) -> BitOperator:
    """Build a permutation by stating which PA bits feed each HA field.

    ``sources[name]`` lists PA bit positions, LSB of the field first.
    Fields absent from ``sources`` keep their identity bits only if those
    bits are not claimed elsewhere; remaining PA bits fill remaining HA
    positions in ascending order.

    This is the constructor the bit-shuffle selector uses: "put the five
    highest-flipping PA bits into the channel field".
    """
    width = layout.width
    source = np.full(width, -1, dtype=np.int64)
    used: set[int] = set()
    for name, bits in sources.items():
        field = layout[name]
        if len(bits) != field.width:
            raise MappingError(
                f"field {name!r} needs {field.width} source bits, got {len(bits)}"
            )
        for offset, pa_bit in enumerate(bits):
            if not 0 <= pa_bit < width:
                raise MappingError(f"source bit {pa_bit} outside address width")
            if pa_bit in used:
                raise MappingError(f"PA bit {pa_bit} assigned twice")
            used.add(pa_bit)
            source[field.shift + offset] = pa_bit
    remaining = [bit for bit in range(width) if bit not in used]
    holes = np.nonzero(source < 0)[0]
    if len(remaining) != len(holes):  # pragma: no cover - internal invariant
        raise MappingError("field sources do not tile the address")
    source[holes] = remaining
    return BitOperator.from_permutation(source)
