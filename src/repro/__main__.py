"""Command-line front end: ``python -m repro <command>``.

Small demos and sanity checks that exercise the library end to end
without writing any code:

* ``demo``    — the quickstart comparison on the mixed-stride copy;
* ``stride``  — the Fig. 3 stride sweep under the default mapping;
* ``hw``      — the AMU/CMT hardware-overhead report (Table 3);
* ``audit``   — build an SDAM controller, register mappings, verify
  the Section 4 correctness properties;
* ``suite``   — a quick Fig. 12-style sweep, every stage computed in
  memory (pass ``--full`` for the complete suites, ``--json`` for
  machine-readable output);
* ``ras``     — seeded device-fault campaign: inject modeled hardware
  faults (stuck rows, dead banks/channels, CMT/AMU upsets), detect
  them, repair by software-defined remapping, and verify zero silent
  corruption against a never-faulted twin machine (``--out`` writes
  the RASReport JSON for CI artifacts; ``--checkpoint``/``--resume``
  make the campaign crash-safe);
* ``adapt``   — seeded online-adaptation campaign: a phase-shifting
  workload served live while the adaptive controller detects phase
  changes and migrates mappings, scored against every relevant static
  mapping (``--min-speedup`` gates CI, ``--out`` writes the campaign
  JSON; ``--checkpoint``/``--resume`` as for ``ras``);
* ``tier``    — tiered-memory campaign: swap policies against the
  all-slow baseline under hot/cold skew and capacity pressure.

The three campaigns share one table (:data:`CAMPAIGNS`), one handler
and one exit contract: 0 ok, 1 the campaign found problems, 2 usage
error, 3 interrupted.

Host speed is measured by the benchmark harness ``perfbench/run.py``,
not by this front end.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np


def cmd_demo(_args) -> int:
    """Quickstart comparison on the mixed-stride copy."""
    from repro.api import mixed_stride_workload
    from repro.system.reporting import format_table
    from repro.system.runner import Session

    workload = mixed_stride_workload()
    session = Session()
    rows = []
    baseline = None
    for result in session.compare(
        workload,
        systems=("bs_dm", "bs_bsm", "bs_hm", "sdm_bsm", "sdm_bsm_ml4"),
    ).values():
        if baseline is None:
            baseline = result.time_ns
        rows.append(
            {
                "system": result.system,
                "throughput_gbps": result.stats.throughput_gbps,
                "speedup": baseline / result.time_ns,
            }
        )
    print(format_table(rows, title=f"{workload.name} across systems"))
    return 0


def cmd_stride(args) -> int:
    """Fig. 3 stride sweep under the default mapping."""
    from repro.hbm import WindowModel, hbm2_config
    from repro.system.reporting import format_table

    if args.accesses < 1:
        print(
            f"error: --accesses must be >= 1, got {args.accesses}",
            file=sys.stderr,
        )
        return 2
    config = hbm2_config()
    model = WindowModel(config, max_inflight=256)
    rows = []
    for stride in (1, 2, 4, 8, 16, 32, 64):
        pa = (
            np.arange(args.accesses, dtype=np.uint64)
            * np.uint64(stride * 64)
        ) % np.uint64(config.total_bytes)
        stats = model.simulate(pa)
        rows.append(
            {
                "stride": stride,
                "throughput_gbps": stats.throughput_gbps,
                "channels": stats.channels_touched,
                "row_hit_rate": stats.row_hit_rate,
            }
        )
    print(
        format_table(rows, title="stride sweep, boot-time default mapping")
    )
    return 0


def cmd_hw(_args) -> int:
    """Print the AMU/CMT overhead models (Table 3)."""
    from repro.core import amu_area_report, cmt_storage_report

    amu = amu_area_report()
    cmt = cmt_storage_report()
    print(
        f"AMU: {amu['switches_per_amu']} crossbar switches, "
        f"{amu['config_bits']}-bit config, x{amu['duplicates']} -> "
        f"{100 * amu['logic_fraction']:.2f}% of a VU37P"
    )
    print(
        f"CMT (128GB socket): two-level {cmt['two_level_kb']:.2f} KB vs "
        f"flat {cmt['flat_kb']:.1f} KB ({cmt['saving_factor']:.1f}x), "
        f"{cmt['lookup_latency_ns']:.0f} ns lookup"
    )
    return 0


def cmd_audit(args) -> int:
    """Build a controller, register random mappings, audit it."""
    from repro.core import ChunkGeometry, SDAMController, audit_controller

    geometry = ChunkGeometry()
    controller = SDAMController(geometry)
    capacity = controller.cmt.max_mappings - controller.cmt.live_mappings
    if not 0 <= args.mappings <= capacity:
        print(
            f"error: --mappings must be in [0, {capacity}] (the CMT's "
            f"free mapping slots), got {args.mappings}",
            file=sys.stderr,
        )
        return 2
    if args.chunks < 0:
        print(
            f"error: --chunks must be >= 0, got {args.chunks}",
            file=sys.stderr,
        )
        return 2
    rng = np.random.default_rng(args.seed)
    for index in range(args.mappings):
        mapping_id = controller.register_mapping(
            rng.permutation(geometry.window_bits)
        )
        for _ in range(4):
            controller.assign_chunk(
                int(rng.integers(geometry.num_chunks)), mapping_id
            )
    report = audit_controller(controller, sample_chunks=args.chunks)
    print(report)
    return 0 if report.ok else 1


def cmd_suite(args) -> int:
    """Run a (quick) Fig. 12-style speedup sweep.

    The quick sweep trims the suites and uses a small DL configuration;
    ``--full`` runs every workload with ``Machine``'s own DL default.
    """
    from repro import api, system
    from repro.errors import ConfigError
    from repro.system.reporting import format_table
    from repro.system.runner import Session

    quick = not args.full
    machine_kwargs: dict = {"dl_config": api.QUICK_DL_CONFIG} if quick else {}
    if args.backend:
        machine_kwargs["backend"] = args.backend
    try:
        session = Session(**machine_kwargs)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    suite = session.sweep(
        api.evaluation_workloads(quick=quick), system.standard_systems()
    )
    if args.json:
        print(suite.to_json(indent=2))
    else:
        table = suite.table
        rows = table.to_rows()
        geo: dict[str, object] = {"workload": "GEOMEAN"}
        for system in table.systems():
            geo[system] = table.geomean(system)
        rows.append(geo)
        print(format_table(rows, title="speedup over BS+DM"))
        print(
            f"wall {suite.wall_seconds:.1f}s, "
            f"{suite.bytes_simulated / 1e6:.1f} MB simulated"
        )
    if suite.errors:
        for error in suite.errors:
            print(
                f"error: {error.workload} x {error.system} "
                f"[{error.stage}]: {error.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def _checkpoint_kwargs(args) -> dict:
    """The checkpoint keywords ``ras`` and ``adapt`` share."""
    from repro.errors import ConfigError

    if args.checkpoint is None and (
        args.resume or args.stop_after is not None
    ):
        raise ConfigError("--resume and --stop-after require --checkpoint")
    return {
        "checkpoint_path": args.checkpoint,
        "resume": args.resume,
        "stop_after": args.stop_after,
    }


def _run_ras(args):
    from repro.errors import ConfigError
    from repro.ras import campaign

    kinds = tuple(args.kinds.split(",")) if args.kinds else campaign.ALL_KINDS
    for kind in kinds:
        if kind not in campaign.ALL_KINDS:
            raise ConfigError(
                f"unknown fault kind {kind!r}; "
                f"known: {', '.join(campaign.ALL_KINDS)}"
            )
    return campaign.run_campaign(
        seed=args.seed,
        kinds=kinds,
        quick=not args.full,
        backend=args.backend,
        **_checkpoint_kwargs(args),
    )


def _run_adapt(args):
    from repro.online import campaign

    result = campaign.run_adaptive_campaign(
        seed=args.seed,
        quick=not args.full,
        window_accesses=args.window,
        backend=args.backend,
        **_checkpoint_kwargs(args),
    )
    result.min_speedup = args.min_speedup
    return result


def _run_tier(args):
    from repro.tier import campaign

    return campaign.run_tier_campaign(
        seed=args.seed, quick=not args.full, policy=args.policy
    )


_CHECKPOINT_FLAGS = (
    ("--checkpoint", "persist campaign progress to this file so a killed "
     "run can be resumed bit-identically", {}),
    ("--resume", "resume the campaign from --checkpoint instead of "
     "starting fresh", {"action": "store_true"}),
    ("--stop-after", "deterministically stop after N steps (fault batches "
     "for ras, trace windows for adapt; testing/CI hook; requires "
     "--checkpoint; exits 3 with a resumable checkpoint)", {"type": int}),
)


class _Campaign(NamedTuple):
    """One campaign subcommand: its flags beyond the shared ones, as
    ``(flag, help, add_argument options)``, and the call that turns
    parsed args into a result (``problems``, ``ok``, ``summary()``,
    ``to_dict()``)."""

    help: str
    label: str  # what an interrupt reports as interrupted
    run: Callable
    backend: str | None = None  # default --backend; None: no flag
    flags: tuple = ()


CAMPAIGNS = {
    "ras": _Campaign(
        "seeded device-fault inject/detect/repair campaign",
        "RAS campaign",
        _run_ras,
        backend="fast",
        flags=(
            ("--kinds", "comma-separated fault kinds "
             "(default: row,bank,channel,cmt,amu)", {}),
            *_CHECKPOINT_FLAGS,
        ),
    ),
    "adapt": _Campaign(
        "seeded online-adaptation campaign (adaptive vs static)",
        "adaptive campaign",
        _run_adapt,
        backend="fast",
        flags=(
            ("--window", "accesses per trace window",
             {"type": int, "default": 2048}),
            ("--min-speedup", "fail unless adaptive beats the best static "
             "mapping by this factor (CI gate)",
             {"type": float, "default": 0.0}),
            *_CHECKPOINT_FLAGS,
        ),
    ),
    "tier": _Campaign(
        "tiered-memory campaign: swap policies vs the all-slow baseline "
        "under capacity pressure and hot/cold skew",
        "tier campaign",
        _run_tier,
        flags=(
            ("--policy", "evaluate one swap policy only (fast | slow | "
             "smart; default: all three; the all-slow baseline always "
             "runs)", {}),
        ),
    ),
}


def cmd_campaign(args) -> int:
    """Run one :data:`CAMPAIGNS` entry under the shared exit contract:
    0 ok, 1 problems, 2 usage error, 3 interrupted."""
    import json

    from repro.errors import CampaignInterrupted, ConfigError

    campaign = CAMPAIGNS[args.command]
    try:
        result = campaign.run(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except CampaignInterrupted as stop:
        print(
            f"campaign interrupted: {stop} "
            f"(resume with --checkpoint {stop.checkpoint_path} --resume)",
            file=sys.stderr,
        )
        return 3
    except KeyboardInterrupt:
        print(f"{campaign.label} interrupted", file=sys.stderr)
        return 3
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        if args.out:
            print(f"report written to {args.out}")
    for problem in result.problems:
        print(f"error: {problem}", file=sys.stderr)
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SDAM reproduction demos"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="quickstart system comparison")
    stride = sub.add_parser("stride", help="Fig. 3 stride sweep")
    stride.add_argument("--accesses", type=int, default=16384)
    sub.add_parser("hw", help="AMU/CMT hardware overhead (Table 3)")
    audit = sub.add_parser("audit", help="verify Section 4 correctness")
    audit.add_argument("--mappings", type=int, default=16)
    audit.add_argument("--chunks", type=int, default=32)
    audit.add_argument("--seed", type=int, default=0)
    suite = sub.add_parser(
        "suite",
        help="Fig. 12-style speedup sweep (serial, in-process, in memory)",
    )
    scope = suite.add_mutually_exclusive_group()
    scope.add_argument(
        "--quick", action="store_true", help="trimmed sweep (default)"
    )
    scope.add_argument(
        "--full", action="store_true", help="complete workload suites"
    )
    suite.add_argument(
        "--json", action="store_true", help="emit the full suite result as JSON"
    )
    suite.add_argument(
        "--backend",
        default=None,
        help="memory fidelity tier for every cell "
        "(fast | vector | event; default fast)",
    )
    for name, campaign in CAMPAIGNS.items():
        command = sub.add_parser(name, help=campaign.help)
        scope = command.add_mutually_exclusive_group()
        scope.add_argument(
            "--quick", action="store_true", help="short run (default)"
        )
        scope.add_argument("--full", action="store_true", help="longer run")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--out", default=None, help="write the report as JSON here"
        )
        command.add_argument(
            "--json", action="store_true", help="print the report as JSON"
        )
        if campaign.backend:
            command.add_argument(
                "--backend",
                default=campaign.backend,
                help=f"memory fidelity tier (default {campaign.backend})",
            )
        for flag, text, options in campaign.flags:
            command.add_argument(flag, help=text, **options)
    args = parser.parse_args(argv)
    # Every seeded subcommand feeds the seed to numpy's generators,
    # which take only non-negative seeds.
    if getattr(args, "seed", 0) < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    handlers = {
        "demo": cmd_demo,
        "stride": cmd_stride,
        "hw": cmd_hw,
        "audit": cmd_audit,
        "suite": cmd_suite,
        **dict.fromkeys(CAMPAIGNS, cmd_campaign),
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
