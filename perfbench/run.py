"""Run the repository benchmark.

    python3 perfbench/run.py --workload fig12-cpu --seed 0 --seconds 20 --trace 0

With ``--workload`` one workload runs in this process.  ``--trace 0``
measures the end-to-end metrics with no instrumentation; ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics, the layer-share table and the tracing overhead, and writes the
spans to ``perfbench/out/``.  Without ``--workload`` every workload
runs, each in its own process, untraced and then traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any cell fails the correctness gate, 2 when the package
sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# At most one BLAS/OpenMP thread: the measured program is serial, and a
# thread pool sized for the host would contend with other tenants of a
# shared machine.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("fig12-cpu", "fig15-accel", "tier-calib")


def _passes(name: str, seconds: int, per_pass: int) -> int:
    """Whole passes (of ``per_pass`` pass-lengths) that fill ``seconds``."""
    import suite

    return max(1, round(seconds / (per_pass * suite.PASS_SECONDS[name])))


def measure(name: str, seed: int, seconds: int, trace: bool, tiny: bool = False):
    """Run one workload; returns ``(output, lines, recorder, passes)``.

    ``output`` is the final JSON object, ``lines`` the human-readable
    report, ``recorder`` the span recorder of a traced run (else None)
    and ``passes`` the cell records of every timed pass.
    """
    import spans
    import suite
    from repro import default_plan_cache

    plan, setup_times = suite.setup(name, seed, tiny)
    lines = []
    recorder = None
    if not trace:
        passes = []
        for index in range(_passes(name, seconds, 1)):
            records, profiles, mix = suite.run_pass(plan, seed, tag=f"p{index}|")
            passes.append(records)
        calibration = suite.run_cells(
            plan.calibration, profiles, mix, seed, tag="calib|"
        )
        failures = suite.check_cells(passes, calibration)
        metrics = suite.end_to_end_metrics(setup_times, passes, calibration)
        units = suite.END_TO_END
        attempted = sum(map(len, passes)) + len(calibration)
        cells = sum(map(len, passes))
        lines.append(
            f"{name} seed={seed} untraced: {len(passes)} passes, "
            f"{cells} timed cells (cell_s percentiles over "
            f"n={len(passes[0])} cells, each pooled over {len(passes)} passes), "
            f"{len(calibration)} calibration cells"
        )
    else:
        recorder = spans.SpanRecorder()
        cache = default_plan_cache()
        untraced, traced = [], []
        hits = misses = 0
        for index in range(_passes(name, seconds, 2)):
            untraced.append(suite.run_pass(plan, seed, tag=f"u{index}|")[0])
            before = cache.hits, cache.misses
            traced.append(
                suite.traced_pass(plan, seed, recorder, tag=f"t{index}|")[0]
            )
            hits += cache.hits - before[0]
            misses += cache.misses - before[1]
        passes = untraced + traced
        failures = suite.check_cells(passes)
        metrics = suite.per_layer_metrics(recorder, traced, untraced, (hits, misses))
        units = suite.PER_LAYER
        attempted = sum(map(len, passes))
        lines.append(
            f"{name} seed={seed} traced: {len(traced)} traced + "
            f"{len(untraced)} untraced passes, {len(recorder.spans)} spans; "
            "per-layer values are per traced pass"
        )
        lines.append("  layer share of traced self time:")
        shares = suite.layer_shares(recorder)
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<12} {100 * share:6.1f} %")
    for metric, unit in units.items():
        lines.append(f"  {metric:<28} {metrics[metric]:>14.6g} {unit}")
    lines.append(
        f"  fail_rate {len(failures)}/{attempted} = {len(failures) / attempted:.3f}"
    )
    for key, problems in failures.items():
        lines.append(f"  FAILED {key}: {'; '.join(problems)}")
    lines.append(f"sim_digest {name} seed={seed}: {suite.sim_digest(passes[0])}")
    output = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    return output, lines, recorder, passes


def _run_one(args) -> int:
    output, lines, recorder, _ = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if recorder is not None:
        recorder.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    print("\n".join(lines))
    print(json.dumps(output), flush=True)
    return 0 if output["correct"] else 1


def _run_all(args) -> int:
    """Every workload, each in its own process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
                timeout=900,
            )
            status = max(status, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
