"""Hashing-based address mapping (the ``BS+HM`` baseline).

Following Liu et al. ("Get out of the valley") and Zhang et al.'s
permutation-based interleaving: each channel-select bit is the XOR of
its identity bit with several higher address bits, concentrating entropy
from a wide bit range into the channel field.  The mapping is a
:class:`~repro.core.bitmatrix.BitOperator` that is linear and invertible
over GF(2), so PA-to-HA stays one-to-one without any table.

The default fold reaches a bounded distance up the address ("a number of
address bits", Section 7.3), so most strides spread well but a few
patterns still collapse — the behaviour Fig. 11(b) attributes to HM.
"""

from __future__ import annotations

from repro.core.bitfield import AddressLayout
from repro.core.bitmatrix import BitOperator
from repro.errors import MappingError

__all__ = ["hash_mapping", "default_hash_mapping"]


def hash_mapping(
    layout: AddressLayout,
    fold_sources: dict[int, list[int]],
) -> BitOperator:
    """Build a hashing mapping from explicit XOR source sets.

    ``fold_sources[channel_bit_index]`` lists the *extra* PA bit
    positions XORed into that channel bit (its identity bit is always
    included).  Bits used as fold sources keep their identity positions
    too, and no channel bit may fold into another (that raises
    :class:`MappingError`), so the matrix is ``I + N`` with ``N`` mapping
    non-channel bits into channel rows only: ``N @ N = 0``, so the fold
    is its own inverse and can never alias two PAs.  The fold is
    identity-plus-XOR-terms (:meth:`BitOperator.from_xor_terms`), so it
    compiles to one pass for the identity part plus one per fold source.
    """
    if "channel" not in layout:
        raise MappingError("layout has no channel field to hash into")
    channel = layout["channel"]
    terms: dict[int, list[int]] = {}
    for channel_bit, extras in fold_sources.items():
        if not 0 <= channel_bit < channel.width:
            raise MappingError(
                f"channel bit {channel_bit} outside 0..{channel.width - 1}"
            )
        row = channel.shift + channel_bit
        for pa_bit in extras:
            if not 0 <= pa_bit < layout.width:
                raise MappingError(f"fold source bit {pa_bit} out of range")
            if channel.shift <= pa_bit < channel.end:
                raise MappingError(
                    "folding channel bits into each other risks singularity"
                )
            terms.setdefault(row, []).append(pa_bit)
    return BitOperator.from_xor_terms(layout.width, terms)


def default_hash_mapping(
    layout: AddressLayout,
    reach_bits: int = 20,
    stride_step: int | None = None,
) -> BitOperator:
    """The default entropy-harvesting hash used by the ``BS+HM`` system.

    Channel bit *i* (at position ``p``) XORs in bits ``p + k*step`` for
    all ``k >= 1`` with ``p + k*step`` below ``channel.shift +
    reach_bits``.  With the canonical layout (channel at bits 6..10,
    step 5) every address bit up to the reach is folded into exactly one
    channel bit, so any power-of-two stride whose flipping bits stay
    below the reach still rotates through all channels.  Strides whose
    activity lives above the reach defeat the hash — the residual
    weakness the paper observes.
    """
    channel = layout["channel"]
    step = stride_step if stride_step is not None else channel.width
    limit = min(layout.width, channel.shift + reach_bits)
    fold_sources: dict[int, list[int]] = {}
    for channel_bit in range(channel.width):
        position = channel.shift + channel_bit
        extras = []
        bit = position + step
        while bit < limit:
            extras.append(bit)
            bit += step
        fold_sources[channel_bit] = extras
    return hash_mapping(layout, fold_sources)
