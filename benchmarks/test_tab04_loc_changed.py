"""Table 4: lines of code changed per software feature.

The paper reports how small the Linux/glibc modifications are (131 LOC
VM allocator, 97 physical allocator, 98 driver, 33 misc).  The analogue
here is the size of each substrate module implementing that feature —
reported for the same four categories, with the paper's numbers beside
them for reference.
"""

from __future__ import annotations

from pathlib import Path

import repro.mem as mem_pkg
from repro.system.reporting import format_table

PAPER_LOC = {
    "VM allocator": 131,
    "PM allocator": 97,
    "Driver": 98,
    "Miscellaneous": 33,
}

FEATURE_MODULES = {
    "VM allocator": ["malloc.py", "virtual.py"],
    "PM allocator": ["physical.py"],
    "Driver": ["kernel.py"],
    "Miscellaneous": ["__init__.py"],
}


def count_loc(path: Path) -> int:
    """Non-blank, non-comment source lines."""
    lines = path.read_text().splitlines()
    return sum(
        1
        for line in lines
        if line.strip() and not line.strip().startswith("#")
    )


def run_tab04():
    package_dir = Path(mem_pkg.__file__).parent
    rows = []
    for feature, modules in FEATURE_MODULES.items():
        loc = sum(count_loc(package_dir / module) for module in modules)
        rows.append(
            {
                "feature": feature,
                "paper_loc_changed": PAPER_LOC[feature],
                "our_module_loc": loc,
                "modules": "+".join(modules),
            }
        )
    return rows


def test_tab04_loc_changed(benchmark, record):
    rows = benchmark.pedantic(run_tab04, rounds=1, iterations=1)
    record(
        "tab04_loc_changed",
        format_table(
            rows,
            title=(
                "Table 4: software modification size (paper = diff vs "
                "Linux/glibc; ours = full from-scratch modules)"
            ),
            float_format="{:.0f}",
        ),
    )
    # Every feature exists and is modest in size — the paper's point is
    # that the software support is small.
    for row in rows:
        assert row["our_module_loc"] > 0
        assert row["our_module_loc"] < 1500
    assert sum(PAPER_LOC.values()) == 359
