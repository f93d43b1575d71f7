"""Self-tests of the benchmark, on tiny sizes of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import suite  # noqa: E402


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def untraced(request):
    return run.measure(request.param, 3, 1, trace=False, tiny=True)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    return run.measure(request.param, 3, 1, trace=True, tiny=True)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_end_to_end_metrics_emitted_with_units(untraced):
    output = untraced[0]
    assert output["correct"] and output["failed"] == 0
    emitted = {k: v["unit"] for k, v in output["metrics"].items()}
    assert emitted == suite.END_TO_END == _declared("end_to_end")
    assert all(v["value"] > 0 for v in output["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced):
    output = traced[0]
    assert output["correct"] and output["failed"] == 0
    emitted = {k: v["unit"] for k, v in output["metrics"].items()}
    assert emitted == suite.PER_LAYER == _declared("per_layer")


def test_self_times_are_not_negative(traced):
    recorder = traced[2]
    assert recorder.spans
    assert min(recorder.self_times()) >= -1e-12  # float rounding only


def test_root_spans_cover_the_cells(traced):
    """Root spans (``Machine.run``/``profile``) account for the cell times.

    The part of a traced cell no root span covers is ``Machine``
    construction plus the recorder's bookkeeping: it must stay within
    the measured tracing overhead (floored at 2 %, the run-to-run noise
    of that estimate).
    """
    output, _lines, recorder, passes = traced
    covered: dict[str, float] = {}
    for span in recorder.roots():
        covered[span.cell] = covered.get(span.cell, 0.0) + span.seconds
    cells = {r.key: r.seconds for p in passes for r in p if r.key in covered}
    assert set(cells) == set(covered)
    assert set(cells) == {r.key for r in passes[-1]}
    gap = sum(cells.values()) - sum(covered.values())
    overhead = max(output["metrics"]["trace.overhead"]["value"], 0.0)
    assert 0.0 <= gap <= (overhead + 0.02) * sum(cells.values())


def test_reference_seconds_divide_by_the_mean_sample():
    """Twice the kernel time around a cell halves its reference seconds."""
    ref = suite.REFERENCE_SECONDS
    quiet = suite.CellRecord("p0|a", seconds=1.0, reference=ref)
    busy = suite.CellRecord("p1|a", seconds=3.0, reference=2 * ref)
    assert suite.reference_seconds([quiet]) == pytest.approx(1.0)
    assert suite.reference_seconds([quiet, busy]) == pytest.approx(4.0 / 1.5)
    assert suite.cell_seconds([[quiet], [busy]]) == {"a": pytest.approx(2.0 / 1.5)}


def test_gate_catches_tampered_fingerprint():
    plan, _ = suite.setup("tier-calib", 3, tiny=True)
    records, _, _ = suite.run_pass(plan, 3, tag="p0|")
    again = copy.deepcopy(records)
    for record in again:
        record.key = record.key.replace("p0|", "p1|")
    assert suite.check_cells([records, again]) == {}

    victim = next(r for r in again if r.result is not None)
    stats = victim.result.stats
    victim.result.stats = dataclasses.replace(
        stats, makespan_ns=stats.makespan_ns + 1.0
    )
    failures = suite.check_cells([records, again])
    assert list(failures) == [victim.key]
    assert "fingerprint" in failures[victim.key][0]

    victim.result.stats = dataclasses.replace(stats, row_hits=stats.row_hits + 1)
    problems = suite.check_cells([records, again])[victim.key]
    assert "row_hits + row_misses != requests" in problems


def test_exits_nonzero_without_the_package(tmp_path):
    """Given only the benchmark files, the command fails without a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tier-calib",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
