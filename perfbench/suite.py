"""The benchmark's workloads, passes, correctness gate and metrics.

A *pass* follows ``run_suite``'s methodology through the public
``Machine`` API, serially and with a fresh ``Machine`` per call: one
``Machine.profile`` per program (the profile every system of that
program shares, folded into the suite mix for BS+BSM), then one
``Machine.run(..., profile=, mix_profile=)`` per (program, system).
Every profile call and every run call is one timed *cell*.  Between
cells the host's speed is sampled with the reference kernel of
:mod:`speed`, and cell times are reported in reference seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro import Machine, MachineResult, default_plan_cache, system_by_key
from repro.api import QUICK_DL_CONFIG
from repro.system.stages import build_mix_profile
from repro.workloads import (
    BFSWorkload,
    HashJoinWorkload,
    MergeJoinWorkload,
    MixedStrideWorkload,
    PageRankWorkload,
    TieredPressureWorkload,
    spec2006_workload,
)

from spans import SpanRecorder, clock, installed, layer_targets, top_layer
from speed import REFERENCE_SECONDS, HostSpeed

SRC = Path(__file__).resolve().parent.parent / "src"

#: The speed samples of this process, shared by set-up and every pass.
HOST = HostSpeed()

#: CPU seconds of one untraced pass at full size on a 2-vCPU x86 VM
#: (Python 3.11).  ``--seconds`` is turned into a whole number of passes
#: with these, so every run of a workload times the same cells and the
#: percentiles see the same sample count.
PASS_SECONDS = {"fig12-cpu": 6.5, "fig15-accel": 5.0, "tier-calib": 5.5}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

TIERS = ("fast", "vector", "event")

END_TO_END = {
    "setup_s": "s",
    "cell_s.p50": "s",
    "cell_s.p90": "s",
    "maccess_per_s": "Maccess/s",
    "peak_rss_mb": "MB",
    "tier_gap.fast": "ratio",
    "tier_gap.vector": "ratio",
}

PER_LAYER = {
    "workloads.trace_s": "s",
    "workloads.program_accesses": "count",
    "cpu.filter_s": "s",
    "cpu.ns_per_access": "ns",
    "cpu.l1_hit_rate": "ratio",
    "cpu.llc_hit_rate": "ratio",
    "cpu.miss_fraction": "ratio",
    "cpu.write_share": "ratio",
    "mem.alloc_s": "s",
    "mem.translate_s": "s",
    "mem.page_faults": "count",
    "mem.us_per_fault": "us",
    "profiling.profile_s": "s",
    "core.select_s": "s",
    "ml.train_s": "s",
    "core.mappings": "count",
    "hbm.translate_s": "s",
    "hbm.decode_s": "s",
    "hbm.plan_hit_rate": "ratio",
    **{f"hbm.simulate_s.{tier}": "s" for tier in TIERS},
    **{f"hbm.ns_per_request.{tier}": "ns" for tier in TIERS},
    "hbm.requests": "count",
    "hbm.row_hit_rate": "ratio",
    "hbm.clp_utilization": "ratio",
    "hbm.makespan_ns": "ns",
    "tier.simulate_s": "s",
    "tier.fast_fraction": "ratio",
    "tier.swaps": "count",
    "tier.swap_bytes": "bytes",
    "tier.trans_hit_rate": "ratio",
    "system.glue_s": "s",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One ``Machine`` call: a profile or a run of one program."""

    kind: str  # "profile" | "run"
    program: object
    system: str
    machine: dict = field(default_factory=dict)

    @property
    def backend(self) -> str:
        return self.machine.get("backend", "fast")

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.program.name}:{self.system}:{self.backend}"


@dataclass
class Plan:
    """A workload: its programs and the cells one pass times."""

    name: str
    programs: list
    profiles: list[Cell]
    runs: list[Cell]
    #: Cells scored once per untraced run, outside the timed passes, so
    #: that ``tier_gap`` compares all three tiers on this workload's
    #: streams.  Empty when ``runs`` already covers every tier.
    calibration: list[Cell] = field(default_factory=list)
    mix: bool = False


def _fig12(tiny: bool) -> Plan:
    accesses = 4_000 if tiny else 48_000
    perlbench = spec2006_workload("perlbench", total_accesses=accesses)
    mcf = spec2006_workload("mcf", total_accesses=accesses)
    cpu = {"engine": "cpu", "cores": 4}
    systems = ("bs_dm", "bs_bsm", "bs_hm", "sdm_bsm", "sdm_bsm_ml4")
    runs = [
        Cell("run", program, system, cpu)
        for program in (perlbench, mcf)
        for system in systems
    ]
    runs.append(
        Cell("run", mcf, "sdm_bsm_dl4", {**cpu, "dl_config": QUICK_DL_CONFIG})
    )
    return Plan(
        name="fig12-cpu",
        programs=[perlbench, mcf],
        profiles=[Cell("profile", p, "bs_dm", cpu) for p in (perlbench, mcf)],
        runs=runs,
        calibration=_calibration(perlbench, cpu),
        mix=True,
    )


def _fig15(tiny: bool) -> Plan:
    if tiny:
        graph = {"scale": 8, "max_accesses": 4_000}
        hashjoin = HashJoinWorkload(
            build_tuples=1_024, probe_tuples=2_048, max_accesses=4_000
        )
        mergejoin = MergeJoinWorkload(tuples=1_024, max_accesses=4_000)
    else:
        graph = {}
        hashjoin = HashJoinWorkload()
        mergejoin = MergeJoinWorkload()
    programs = [
        BFSWorkload(**graph), PageRankWorkload(**graph), hashjoin, mergejoin,
    ]
    accel = {"engine": "accelerator"}
    return Plan(
        name="fig15-accel",
        programs=programs,
        profiles=[Cell("profile", p, "bs_dm", accel) for p in programs],
        runs=[
            Cell("run", program, system, accel)
            for program in programs
            for system in ("bs_dm", "bs_hm", "sdm_bsm_ml4")
        ],
        calibration=_calibration(hashjoin, accel),
    )


def _calibration(program, machine: dict) -> list[Cell]:
    """``program`` on the vector and event tiers, for ``tier_gap``.

    The calibrated program is the one with the longest external stream
    (perlbench, hashjoin): its gap moves least with the input seed.
    """
    return [
        Cell("run", program, system, {**machine, "backend": tier})
        for system in ("bs_dm", "bs_hm", "sdm_bsm_ml4")
        for tier in TIERS[1:]
    ]


def _tier_calib(tiny: bool) -> Plan:
    copies = MixedStrideWorkload(
        (1, 4, 8, 16), accesses_per_stride=1_024 if tiny else 8_192
    )
    footprint = (1 if tiny else 4) << 20
    pressure = [
        TieredPressureWorkload(
            footprint_bytes=footprint,
            hot_fraction=hot,
            accesses=4_096 if tiny else 65_536,
        )
        for hot in (0.9, 0.0)
    ]
    tiered = {
        "backend": "tiered",
        "backend_options": {
            "policy": "smart",
            "fast_pages": 64 if tiny else 256,
        },
    }
    runs = [
        Cell("run", copies, system, {"backend": tier})
        for tier in TIERS
        for system in ("bs_dm", "bs_hm", "sdm_bsm")
    ]
    runs += [Cell("run", program, "bs_dm", tiered) for program in pressure]
    return Plan(
        name="tier-calib",
        programs=[copies, *pressure],
        profiles=[Cell("profile", copies, "bs_dm")],
        runs=runs,
    )


_BUILDERS = {"fig12-cpu": _fig12, "fig15-accel": _fig15, "tier-calib": _tier_calib}


def build_plan(name: str, tiny: bool = False) -> Plan:
    """The workload ``name`` at full (or, for self-tests, tiny) size."""
    return _BUILDERS[name](tiny)


def seeds_of(seed: int) -> tuple[int, int]:
    """(profile seed, eval seed): distinct inputs, as in Section 7.3."""
    return 2 * seed, 2 * seed + 1


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _current_cpu() -> int:
    """The CPU this process last ran on (field 39 of ``/proc/self/stat``)."""
    stat = Path("/proc/self/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[36])


def _import_seconds() -> float:
    """CPU seconds of a fresh interpreter importing the package.

    Where the OS allows it, the child runs on the CPU this process last
    ran on, the one the reference samples around it measured: on a
    shared 2-vCPU VM that halved the spread of the normalised import
    time.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    pin = None
    if hasattr(os, "sched_setaffinity") and Path("/proc/self/stat").is_file():
        cpu = _current_cpu()
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=env,
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
        preexec_fn=pin,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def _fill_plan_cache(plan: Plan) -> None:
    """Compile the boot and hash decode plans and first-call paths.

    One tiny copy per distinct (engine, backend) of the plan, under the
    two mappings that need no profile.
    """
    default_plan_cache().clear()
    tiny = MixedStrideWorkload((1, 4), accesses_per_stride=256)
    configs = {
        json.dumps(cell.machine, sort_keys=True, default=str): cell.machine
        for cell in plan.runs
    }
    for machine in configs.values():
        for system in ("bs_dm", "bs_hm"):
            Machine(system_by_key(system), **machine).run(tiny)


def setup(name: str, seed: int, tiny: bool = False) -> tuple[Plan, list[float]]:
    """Build the workload ``SETUP_REPEATS`` times; return it and the times.

    Each repetition times an import in a fresh interpreter, workload
    construction including lazily built inputs (graphs for both input
    seeds), and the first plan-cache fills, in reference seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = HOST.latest()
        seconds = _import_seconds()
        start = clock()
        plan = build_plan(name, tiny)
        for program in plan.programs:
            if hasattr(program, "graph"):
                for input_seed in seeds_of(seed):
                    program.graph(input_seed)
        _fill_plan_cache(plan)
        seconds += clock() - start
        reference = (before + HOST.sample()) / 2
        times.append(seconds * REFERENCE_SECONDS / reference)
    return plan, times


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class CellRecord:
    """What one timed cell produced.

    ``seconds`` is the cell's CPU time; ``reference`` the mean of the
    reference-kernel samples taken just before and just after it.
    """

    key: str
    seconds: float
    reference: float
    result: MachineResult | None = None
    error: str | None = None


def _timed(key: str, call, recorder: SpanRecorder | None):
    if recorder is not None:
        recorder.cell = key
    before = HOST.latest()
    start = clock()
    try:
        value = call()
    except Exception:  # noqa: BLE001 — a failing cell is reported, not fatal
        seconds = clock() - start
        reference = (before + HOST.sample()) / 2
        error = traceback.format_exc()
        return CellRecord(key, seconds, reference, error=error), None
    seconds = clock() - start
    reference = (before + HOST.sample()) / 2
    result = value if isinstance(value, MachineResult) else None
    return CellRecord(key, seconds, reference, result=result), value


def run_cells(cells, profiles, mix, seed, recorder=None, tag=""):
    """Time ``Machine.run`` for each cell; returns the records."""
    profile_seed, eval_seed = seeds_of(seed)
    records = []
    for cell in cells:
        record, _ = _timed(
            tag + cell.key,
            lambda: Machine(system_by_key(cell.system), **cell.machine).run(
                cell.program,
                profile_seed=profile_seed,
                eval_seed=eval_seed,
                profile=profiles.get(cell.program.name),
                mix_profile=mix,
            ),
            recorder,
        )
        records.append(record)
    return records


def run_pass(plan: Plan, seed: int, recorder=None, tag=""):
    """One pass: profile cells, the suite mix, run cells.

    Returns ``(records, profiles, mix)``.
    """
    profile_seed, _ = seeds_of(seed)
    records = []
    profiles = {}
    for cell in plan.profiles:
        record, profile = _timed(
            tag + cell.key,
            lambda: Machine(system_by_key(cell.system), **cell.machine).profile(
                cell.program, input_seed=profile_seed
            ),
            recorder,
        )
        records.append(record)
        if profile is not None:
            profiles[cell.program.name] = profile
    mix = build_mix_profile(list(profiles.values())) if plan.mix else None
    records += run_cells(plan.runs, profiles, mix, seed, recorder, tag)
    return records, profiles, mix


def traced_pass(plan: Plan, seed: int, recorder: SpanRecorder, tag: str):
    """:func:`run_pass` with every layer entry point wrapped."""
    with installed(recorder, layer_targets(plan.programs)):
        return run_pass(plan, seed, recorder, tag)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def fingerprint_digest(result: MachineResult) -> str:
    text = json.dumps(result.fingerprint(), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_violations(result: MachineResult) -> list[str]:
    """The ``RunStats`` conservation laws of one run cell."""
    stats = result.stats
    problems = []
    if stats.row_hits + stats.row_misses != stats.requests:
        problems.append("row_hits + row_misses != requests")
    if result.external is not None and len(result.external.trace) != stats.requests:
        problems.append("requests != len(external trace)")
    if int(stats.per_channel_requests.sum()) != stats.requests:
        problems.append("sum(per_channel_requests) != requests")
    traffic = result.tier_traffic
    if traffic is not None and traffic.accesses != stats.requests:
        problems.append("fast_accesses + slow_accesses != requests")
    return problems


def _cell_name(key: str) -> str:
    """A record key without its pass tag."""
    return key.split("|", 1)[-1]


def check_cells(passes: list[list[CellRecord]], extra=()) -> dict[str, list[str]]:
    """Violations per failing record key; empty when every cell is correct.

    A cell fails when it raised, breaks a ``RunStats`` invariant, or its
    fingerprint differs from the same cell's fingerprint in the first
    pass.  Every tier must also see the same external stream for the
    same program and system.  ``extra`` records (tier calibration) are
    checked like pass records, except for the fingerprint.
    """
    failures: dict[str, list[str]] = {}
    reference: dict[str, str] = {}
    streams: dict[str, dict] = {}

    def check(record: CellRecord, compare_fingerprint: bool) -> None:
        problems = _record_problems(record)
        if record.result is not None:
            name = _cell_name(record.key)
            if compare_fingerprint:
                digest = fingerprint_digest(record.result)
                if reference.setdefault(name, digest) != digest:
                    problems.append("fingerprint differs from the first pass")
            # Every tier scores the same external stream of a
            # (program, system): the key without its backend.
            stream = record.result.fingerprint()["external"]
            if streams.setdefault(name.rsplit(":", 1)[0], stream) != stream:
                problems.append("external stream differs between tiers")
        if problems:
            failures[record.key] = problems

    for records in passes:
        for record in records:
            check(record, compare_fingerprint=True)
    for record in extra:
        check(record, compare_fingerprint=False)
    return failures


def _record_problems(record: CellRecord) -> list[str]:
    if record.error is not None:
        return [record.error.strip().splitlines()[-1]]
    if record.result is not None:
        return invariant_violations(record.result)
    return []


def sim_digest(records: list[CellRecord]) -> str:
    """One hash over every run cell's fingerprint in a pass."""
    parts = sorted(
        (_cell_name(r.key), fingerprint_digest(r.result))
        for r in records
        if r.result is not None
    )
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tier_gaps(records: list[CellRecord]) -> dict[str, float]:
    """Geomean over systems of |tier makespan / event makespan - 1|."""
    makespan = {}
    for record in records:
        if record.result is not None:
            _, program, system, tier = _cell_name(record.key).split(":")
            makespan[(program, system, tier)] = record.result.stats.makespan_ns
    pairs = sorted(
        {(p, s) for (p, s, t) in makespan if t == "event"}
    )
    # A tier that matches the reference exactly would zero the geomean;
    # floor each term so one exact system cannot hide the others' error.
    return {
        tier: statistics.geometric_mean(
            max(abs(makespan[(p, s, tier)] / makespan[(p, s, "event")] - 1), 1e-6)
            for p, s in pairs
        )
        for tier in TIERS[:2]
    }


def reference_seconds(records: list[CellRecord]) -> float:
    """CPU seconds of ``records`` at the reference host speed.

    Their CPU seconds over the mean of their reference samples: a ratio
    of sums, which a burst of host speed around one cell moves less
    than it moves that cell's own ratio.
    """
    seconds = sum(r.seconds for r in records)
    mean_reference = statistics.fmean(r.reference for r in records)
    return seconds * REFERENCE_SECONDS / mean_reference


def cell_seconds(passes: list[list[CellRecord]]) -> dict[str, float]:
    """Reference seconds of one call of each cell, over all its passes."""
    by_cell: dict[str, list[CellRecord]] = {}
    for records in passes:
        for record in records:
            by_cell.setdefault(_cell_name(record.key), []).append(record)
    return {name: reference_seconds(rs) / len(rs) for name, rs in by_cell.items()}


def end_to_end_metrics(setup_times, passes, calibration) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    cells = list(cell_seconds(passes).values())
    # Linear interpolation between order statistics (numpy's default).
    deciles = statistics.quantiles(cells, n=10, method="inclusive")
    gaps = tier_gaps([r for records in passes[:1] for r in records] + calibration)
    records = [r for rs in passes for r in rs]
    accesses = sum(
        r.result.external.program_accesses for r in records if r.result is not None
    )
    return {
        "setup_s": statistics.median(setup_times),
        "cell_s.p50": deciles[4],
        "cell_s.p90": deciles[8],
        "maccess_per_s": accesses / reference_seconds(records) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "tier_gap.fast": gaps["fast"],
        "tier_gap.vector": gaps["vector"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_self_times(recorder: SpanRecorder) -> dict[str, float]:
    """Total self time per span layer name."""
    totals: dict[str, float] = {}
    for span, own in zip(recorder.spans, recorder.self_times()):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def layer_shares(recorder: SpanRecorder) -> dict[str, float]:
    """Share of all traced self time per top-level layer."""
    totals: dict[str, float] = {}
    for layer, seconds in layer_self_times(recorder).items():
        totals[top_layer(layer)] = totals.get(top_layer(layer), 0.0) + seconds
    whole = sum(totals.values()) or 1.0
    return {layer: seconds / whole for layer, seconds in totals.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    traced: list[list[CellRecord]],
    untraced: list[list[CellRecord]],
    plan_lookups: tuple[int, int],
) -> dict[str, float]:
    """The per-layer metrics of the traced passes, per pass.

    ``plan_lookups`` is the (hits, misses) delta of the default plan
    cache over the traced passes.
    """
    n = len(traced)
    own = layer_self_times(recorder)
    counts: dict[str, dict[str, float]] = {}
    for span in recorder.spans:
        bucket = counts.setdefault(span.layer, {})
        for name, value in span.counts.items():
            bucket[name] = bucket.get(name, 0) + value

    def seconds(layer: str) -> float:
        return own.get(layer, 0.0) / n

    def count(layer: str, name: str) -> float:
        return counts.get(layer, {}).get(name, 0)

    cpu_program = count("cpu", "program_accesses")
    faults = count("mem.translate", "faults")
    results = [r.result for records in traced for r in records if r.result]
    requests = sum(r.stats.requests for r in results)
    traffic = [r.tier_traffic for r in results if r.tier_traffic is not None]
    fast = sum(t.fast_accesses for t in traffic)
    lookups = sum(t.trans_lookups for t in traffic)
    metrics = {
        "workloads.trace_s": seconds("workloads"),
        "workloads.program_accesses": count("workloads", "program_accesses") / n,
        "cpu.filter_s": seconds("cpu"),
        "cpu.ns_per_access": _ratio(own.get("cpu", 0.0) * 1e9, cpu_program),
        "cpu.l1_hit_rate": _ratio(count("cpu", "l1_hits"), cpu_program),
        "cpu.llc_hit_rate": _ratio(count("cpu", "llc_hits"), cpu_program),
        "cpu.miss_fraction": _ratio(count("cpu", "external"), cpu_program),
        "cpu.write_share": _ratio(count("cpu", "writes"), count("cpu", "external")),
        "mem.alloc_s": seconds("mem.alloc"),
        "mem.translate_s": seconds("mem.translate"),
        "mem.page_faults": faults / n,
        "mem.us_per_fault": _ratio(own.get("mem.translate", 0.0) * 1e6, faults),
        "profiling.profile_s": seconds("profiling"),
        "core.select_s": seconds("core"),
        "ml.train_s": seconds("ml"),
        "core.mappings": count("mem.alloc", "mappings") / n,
        "hbm.translate_s": seconds("hbm.translate"),
        "hbm.decode_s": seconds("hbm.decode"),
        "hbm.plan_hit_rate": _ratio(plan_lookups[0], sum(plan_lookups)),
        "hbm.requests": requests / n,
        "hbm.row_hit_rate": _ratio(sum(r.stats.row_hits for r in results), requests),
        "hbm.clp_utilization": statistics.fmean(
            r.stats.clp_utilization for r in results
        ),
        "hbm.makespan_ns": statistics.fmean(r.stats.makespan_ns for r in results),
        "tier.simulate_s": seconds("tier"),
        "tier.fast_fraction": _ratio(fast, sum(t.accesses for t in traffic)),
        "tier.swaps": sum(t.swaps for t in traffic) / n,
        "tier.swap_bytes": sum(t.swap_bytes for t in traffic) / n,
        "tier.trans_hit_rate": _ratio(sum(t.trans_hits for t in traffic), lookups),
        "system.glue_s": seconds("system"),
        "trace.overhead": _ratio(
            statistics.median(cell_seconds(traced).values()),
            statistics.median(cell_seconds(untraced).values()),
        ) - 1,
    }
    for tier in TIERS:
        layer = f"hbm.simulate.{tier}"
        metrics[f"hbm.simulate_s.{tier}"] = seconds(layer)
        metrics[f"hbm.ns_per_request.{tier}"] = _ratio(
            own.get(layer, 0.0) * 1e9, count(layer, "requests")
        )
    return metrics
