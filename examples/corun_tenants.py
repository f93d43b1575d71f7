"""Multiprogramming on one SDAM machine: four tenants, one CMT.

The chunk-mapping table is a *global* resource (Section 4: "the
physical memory space ... is globally shared by all the processes"),
so co-running applications share the 256-mapping budget.  Each
application runs through its own :class:`~repro.system.machine.Machine`
over one shared kernel and CMT, with at most ``clusters_per_app``
mappings of its own; the co-run machine checks before profiling that
the identity plus every application's clusters fit the table.  This
example co-runs four applications with different access characters,
sweeps the per-application cluster budget, prints the budget
arithmetic, and shows the CMT never overflowing while SDAM still pays
off for the mix.

Run:  python examples/corun_tenants.py
"""

from repro.system.corun import CorunMachine
from repro.system.reporting import format_table
from repro.workloads import (
    HashJoinWorkload,
    MixedStrideWorkload,
    spec2006_workload,
)


def tenants():
    return [
        spec2006_workload("libquantum"),  # streaming-heavy
        spec2006_workload("mcf"),  # record/pointer-heavy
        HashJoinWorkload(),  # scan + random probes
        MixedStrideWorkload(strides=(4, 16), accesses_per_stride=4000),
    ]


def main() -> None:
    apps = tenants()
    print(f"co-running: {', '.join(w.name for w in apps)}\n")
    baseline = CorunMachine(use_sdam=False).run(apps)
    rows = [
        {
            "configuration": "shared BS+DM",
            "live_mappings": 1,
            "throughput_gbps": baseline.stats.throughput_gbps,
            "speedup": 1.0,
        }
    ]
    for budget in (1, 2, 4, 8):
        result = CorunMachine(clusters_per_app=budget).run(apps)
        rows.append(
            {
                "configuration": f"SDAM, {budget} clusters/app",
                "live_mappings": result.live_mappings,
                "throughput_gbps": result.stats.throughput_gbps,
                "speedup": baseline.time_ns / result.time_ns,
            }
        )
    print(format_table(rows, title="four tenants sharing one CMT"))
    # The budget the last sweep ran under: slot 0 (the boot identity)
    # shared by everyone, plus at most 8 mappings per app.
    needed = 1 + len(apps) * 8
    print(
        f"\nbudget at 8 clusters/app: 1 identity + {len(apps)} apps x 8 "
        f"= {needed} of 256 CMT slots at most "
        f"({result.live_mappings} used)"
    )
    print(
        "\nEven one mapping per tenant recovers most of the benefit — the\n"
        "paper's argument that a 256-entry CMT comfortably serves many\n"
        "co-running applications."
    )


if __name__ == "__main__":
    main()
