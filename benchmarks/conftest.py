"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
writes its output under ``benchmarks/results/`` (also echoed to stdout
with ``pytest -s``).  Set ``REPRO_BENCH_QUICK=1`` to run reduced
sweeps while iterating, and ``REPRO_BENCH_CACHE=dir`` to persist stage
outputs (profiles, selections, results) between benchmark runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def is_quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def sweep_kwargs() -> dict:
    """Engine knobs for the sweep-driving benchmarks."""
    kwargs: dict = {}
    cache = os.environ.get("REPRO_BENCH_CACHE", "")
    if cache:
        kwargs["cache_dir"] = cache
    return kwargs


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
