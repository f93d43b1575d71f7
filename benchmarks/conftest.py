"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
writes its output under ``benchmarks/results/`` (also echoed to stdout
with ``pytest -s``).  Set ``REPRO_BENCH_QUICK=1`` to run reduced
sweeps while iterating.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def is_quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record(results_dir):
    """Write a named artefact and echo it."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n(saved to {path})")

    return _record
