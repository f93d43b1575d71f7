"""Figure 2: channel conflicts for different access patterns x mappings.

The illustrative example of Section 2.2: stride-1 and stride-16 streams
under (1) the default channel-interleaved mapping and (2) a mapping that
moves three low row bits next to the column bits.  Each (pattern,
mapping) cell reports how many distinct channels serve 32 consecutive
accesses — the red "conflict" cells of the figure are the ones stuck on
one or two channels.
"""

from __future__ import annotations

import numpy as np

from repro.core import BitOperator, identity_mapping
from repro.hbm import decode_trace, hbm2_config
from repro.system.reporting import format_table

CFG = hbm2_config()


def mapping2() -> BitOperator:
    """Feed three higher address bits into the channel LSBs.

    The paper's second example mapping splits the row field and slots
    its low bits next to the channel; the effect being illustrated is
    that channel selects now come from bits a stride-16 stream flips.
    """
    source = list(range(CFG.address_bits))
    for channel_bit, high_bit in zip([6, 7, 8], [11, 12, 13]):
        source[channel_bit], source[high_bit] = (
            source[high_bit],
            source[channel_bit],
        )
    return BitOperator.from_permutation(source)


def channels_used(mapping, stride_lines: int, count: int = 32) -> int:
    pa = np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * 64)
    ha = np.asarray(mapping.apply(pa))
    return int(np.unique(decode_trace(ha, CFG).channel).size)


def run_fig02():
    mappings = {
        "mapping1 (default)": identity_mapping(CFG.address_bits),
        "mapping2 (row bits low)": mapping2(),
    }
    rows = []
    for stride in (1, 16):
        row: dict[str, object] = {"access_pattern": f"stride-{stride}"}
        for name, mapping in mappings.items():
            row[name] = channels_used(mapping, stride)
        rows.append(row)
    return rows


def test_fig02_mapping_pattern_interaction(benchmark, record):
    rows = benchmark.pedantic(run_fig02, rounds=1, iterations=1)
    record(
        "fig02_mapping_conflicts",
        format_table(
            rows,
            title="Fig 2: distinct channels serving 32 consecutive accesses",
            float_format="{:.0f}",
        ),
    )
    table = {row["access_pattern"]: row for row in rows}
    # Mapping 1 spreads stride-1 but collapses stride-16.
    assert table["stride-1"]["mapping1 (default)"] == 32
    assert table["stride-16"]["mapping1 (default)"] <= 2
    # Mapping 2 does the reverse.
    assert table["stride-16"]["mapping2 (row bits low)"] >= 8
    assert table["stride-1"]["mapping2 (row bits low)"] <= 8
