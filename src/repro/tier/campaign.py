"""Tiered-memory campaign: policies under pressure and skew.

The experiment behind ``python -m repro tier``: run the
:class:`~repro.workloads.synthetic.TieredPressureWorkload` in two
shapes — hot/cold skew (a small hot set a good policy keeps fast) and
pure capacity pressure (uniform traffic over an oversized footprint,
where the right move is to not thrash) — through the tiered backend
under every swap policy, against an all-slow baseline (fast capacity
zero).  After **every** swap wave the placement map's conservation
invariants are checked exactly: every page seen so far lives in exactly
one tier, the fast tier is within capacity, pinned pages are slow.

Two side legs exercise the subsystem's integration points:

* **sdam** — :meth:`~repro.mem.migration.ChunkMigrator.migrate_chunk`
  remaps a live chunk's mapping mid-swap, first with an injected
  mid-copy fault (the CMT must roll back), then cleanly;
* **ras** — retired pages reported by
  :class:`~repro.mem.physical.PhysicalMemory` are pinned to the slow
  tier: fast capacity is unchanged and the pages are never promoted.

The campaign gates on SmartSwap being *strictly* faster than the
all-slow baseline on every workload leg; any gate or invariant failure
lands in ``problems`` and fails the CLI run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.chunks import ChunkGeometry, MiB
from repro.core.sdam import SDAMController
from repro.errors import ConfigError, SimulationError
from repro.hbm.config import HBMConfig, hbm2_config
from repro.ledger import PROVENANCE, Record
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.mem.migration import ChunkMigrator
from repro.tier.backend import TieredBackend
from repro.tier.policies import available_policies
from repro.workloads.synthetic import TieredPressureWorkload

__all__ = ["TierCampaignResult", "run_tier_campaign"]

#: Policy evaluated against the all-slow baseline for the speed gate.
GATED_POLICY = "smart"
#: Accesses per swap wave in every leg.
WAVE_ACCESSES = 2048


@dataclass
class TierCampaignResult(Record):
    """Everything one tiered-memory campaign produced."""

    derived = ("speedups", "ok")

    seed: int
    quick: bool
    policies: list[str]
    fast_pages: int
    wave_accesses: int
    waves: int
    legs: dict[str, dict[str, float]]
    baseline_ns: dict[str, float]
    traffic: dict[str, dict[str, dict]]
    sdam: dict = field(default_factory=dict)
    ras: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    elapsed_seconds: float = field(default=0.0, metadata=PROVENANCE)

    @property
    def ok(self) -> bool:
        """True when every invariant and gate held."""
        return not self.problems

    def speedup(self, leg: str, policy: str = GATED_POLICY) -> float:
        """Baseline (all-slow) over a policy's makespan for one leg."""
        policy_ns = self.legs[leg].get(policy, 0.0)
        if policy_ns <= 0:
            return 0.0
        return self.baseline_ns[leg] / policy_ns

    @property
    def speedups(self) -> dict[str, float]:
        """:meth:`speedup` of every leg the gated policy ran on."""
        return {
            leg: self.speedup(leg)
            for leg in self.legs
            if GATED_POLICY in self.legs[leg]
        }

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = []
        for leg, cells in self.legs.items():
            parts = ", ".join(
                f"{policy} {cells[policy] / 1e6:.2f} ms"
                for policy in sorted(cells)
            )
            line = f"{leg}: {parts} vs all-slow " + (
                f"{self.baseline_ns[leg] / 1e6:.2f} ms"
            )
            if GATED_POLICY in cells:
                line += f" -> {GATED_POLICY} {self.speedup(leg):.2f}x"
            lines.append(line)
        if self.sdam:
            lines.append(
                f"sdam: {self.sdam.get('remaps', 0)} remap(s), "
                f"{self.sdam.get('rollbacks', 0)} rollback(s) "
                f"(rollback {'ok' if self.sdam.get('rollback_ok') else 'FAILED'})"
            )
        if self.ras:
            lines.append(
                f"ras: {self.ras.get('retired', 0)} page(s) retired -> "
                f"slow tier (fast capacity "
                f"{'unchanged' if self.ras.get('capacity_ok') else 'SHRUNK'})"
            )
        lines.append(
            "invariants: OK" if self.ok else
            f"invariants: {len(self.problems)} problem(s)"
        )
        return "\n".join(lines)


def _leg_trace(workload: TieredPressureWorkload, seed: int) -> np.ndarray:
    """The leg's hardware-address trace (arena based at address 0)."""
    return workload.trace({"arena": 0}, input_seed=seed)[0].va


def _run_leg(
    label: str,
    ha: np.ndarray,
    config: HBMConfig,
    policy: str,
    fast_pages: int,
    wave_accesses: int,
    problems: list[str],
) -> tuple[float, dict]:
    """One (leg, policy) cell with per-wave invariant checks."""
    backend = TieredBackend(
        config,
        policy=policy,
        fast_pages=fast_pages,
        wave_accesses=wave_accesses,
    )
    pages = (ha >> np.uint64(backend.tier.page_bits)).astype(np.int64)
    expected: set[int] = set()
    cursor = 0

    def on_wave(index, placement, _traffic):
        nonlocal cursor
        end = min(cursor + wave_accesses, pages.size)
        expected.update(int(p) for p in pages[cursor:end])
        cursor = end
        for problem in placement.check_invariants(expected):
            problems.append(
                f"{label}/{policy} wave {index}: {problem}"
            )

    backend.on_wave = on_wave
    stats = backend.simulate(ha)
    return float(stats.makespan_ns), backend.last_traffic.to_dict()


def _sdam_leg(problems: list[str]) -> dict:
    """SDAM-aware swap with mid-copy fault rollback, then a clean remap."""
    geometry = ChunkGeometry(total_bytes=32 * MiB)
    kernel = Kernel(geometry, sdam=SDAMController(geometry))
    space = kernel.spawn()
    malloc = MappingAwareAllocator(kernel, space)
    migrator = ChunkMigrator(kernel)
    cmt = kernel.sdam.cmt
    new_mapping = malloc.add_addr_map(
        np.roll(np.arange(geometry.window_bits), 2)
    )
    va = malloc.malloc(1 * MiB, mapping_id=0, tag="hot")
    touch = np.arange(
        va, va + 1 * MiB, geometry.page_bytes, dtype=np.uint64
    )
    space.translate_trace(touch)
    chunk_no = geometry.chunk_number(space.translate(va))
    old_index = cmt.mapping_index_of(chunk_no)

    def exploding_copy(_pa_lines, _reads, _writes):
        raise SimulationError("injected mid-copy device fault")

    remaps = rollbacks = 0
    try:
        migrator.migrate_chunk(chunk_no, new_mapping, on_copy=exploding_copy)
        remaps += 1
        problems.append("sdam: injected mid-copy fault did not propagate")
    except SimulationError:
        rollbacks += 1
    rollback_ok = cmt.mapping_index_of(chunk_no) == old_index
    if not rollback_ok:
        problems.append(
            "sdam: CMT not rolled back after mid-copy fault "
            f"(expected mapping {old_index})"
        )
    report = migrator.migrate_chunk(chunk_no, new_mapping)
    remaps += 1
    if cmt.mapping_index_of(chunk_no) != new_mapping:
        problems.append("sdam: clean swap did not adopt the new mapping")
    return {
        "remaps": remaps,
        "rollbacks": rollbacks,
        "rollback_ok": rollback_ok,
        "lines_copied": int(report.lines_copied),
        "cost_ns": float(report.cost_ns),
    }


def _ras_leg(
    config: HBMConfig,
    fast_pages: int,
    wave_accesses: int,
    problems: list[str],
) -> dict:
    """Retired pages fall back to the slow tier, pinned for good."""
    backend = TieredBackend(
        config,
        policy="smart",
        fast_pages=fast_pages,
        wave_accesses=wave_accesses,
    )
    geometry = ChunkGeometry(total_bytes=32 * MiB)
    kernel = Kernel(geometry)
    kernel.physical.on_page_retired = backend.retire_page
    chunk = kernel.physical.acquire_chunk(0)
    offsets = list(range(4))
    retired = kernel.physical.retire_pages(chunk.number, offsets)
    base = chunk.number * geometry.pages_per_chunk
    global_pages = [base + offset for offset in offsets]
    for page in global_pages:
        if backend.placement.tier_of(page) != "slow":
            problems.append(f"ras: retired page {page} not in the slow tier")
        if not backend.placement.is_pinned(page):
            problems.append(f"ras: retired page {page} not pinned")
    if backend.placement.fast_capacity != fast_pages:
        problems.append("ras: retirement shrank the fast tier capacity")
    # Hammer the retired pages: even a hot retired page must stay slow.
    page_bytes = backend.tier.page_bytes
    ha = np.concatenate(
        [
            np.full(wave_accesses, page * page_bytes, dtype=np.uint64)
            for page in global_pages
        ]
    )
    backend.simulate(ha)
    promoted = [
        page
        for page in global_pages
        if backend.placement.tier_of(page) != "slow"
    ]
    if promoted:
        problems.append(f"ras: retired page(s) promoted: {promoted}")
    if len(backend.placement.fast) > fast_pages:
        problems.append("ras: fast tier over capacity after retirement")
    return {
        "retired": retired,
        "pinned": len(backend.placement.pinned),
        "capacity_ok": backend.placement.fast_capacity == fast_pages
        and len(backend.placement.fast) <= fast_pages,
        "never_promoted": not promoted,
        "slow_accesses": backend.last_traffic.slow_accesses,
    }


def run_tier_campaign(
    seed: int = 0,
    quick: bool = True,
    policy: str | None = None,
) -> TierCampaignResult:
    """Run the seeded tiered-memory campaign.

    ``quick`` shrinks the arena and the trace for smoke runs; the
    structure (both workload legs, the sdam and ras side legs, the
    per-wave invariant checks, the SmartSwap-vs-all-slow gate) is
    unchanged.  ``policy`` restricts the evaluated policies to one name
    (the all-slow baseline always runs).  The device is
    :func:`~repro.hbm.config.hbm2_config` and every leg swaps in waves of
    :data:`WAVE_ACCESSES` accesses.
    """
    started = time.perf_counter()
    hbm = hbm2_config()
    wave_accesses = WAVE_ACCESSES
    if policy is not None and policy not in available_policies():
        raise ConfigError(
            f"unknown swap policy {policy!r}; "
            f"available: {', '.join(available_policies())}"
        )
    policies = [policy] if policy else list(available_policies())
    footprint = 4 * MiB if quick else 16 * MiB
    accesses = 32768 if quick else 131072
    page_bits = 12
    fast_pages = (footprint >> page_bits) // 4
    workloads = {
        "skew": TieredPressureWorkload(
            footprint_bytes=footprint, hot_fraction=0.9, accesses=accesses
        ),
        "pressure": TieredPressureWorkload(
            footprint_bytes=footprint, hot_fraction=0.0, accesses=accesses
        ),
    }
    problems: list[str] = []
    legs: dict[str, dict[str, float]] = {}
    baseline_ns: dict[str, float] = {}
    traffic: dict[str, dict[str, dict]] = {}
    waves = 0
    for leg, workload in workloads.items():
        ha = _leg_trace(workload, seed)
        waves = max(waves, -(-int(ha.size) // wave_accesses))
        legs[leg] = {}
        traffic[leg] = {}
        for name in policies:
            makespan, cell_traffic = _run_leg(
                leg, ha, hbm, name, fast_pages, wave_accesses, problems
            )
            legs[leg][name] = makespan
            traffic[leg][name] = cell_traffic
        slow_ns, slow_traffic = _run_leg(
            leg, ha, hbm, "slow", 0, wave_accesses, problems
        )
        baseline_ns[leg] = slow_ns
        traffic[leg]["all-slow"] = slow_traffic
        if GATED_POLICY in legs[leg]:
            if not legs[leg][GATED_POLICY] < slow_ns:
                problems.append(
                    f"{leg}: SmartSwap ({legs[leg][GATED_POLICY]:.0f} ns) "
                    f"not strictly faster than all-slow ({slow_ns:.0f} ns)"
                )
    sdam = _sdam_leg(problems)
    ras = _ras_leg(hbm, fast_pages, wave_accesses, problems)
    return TierCampaignResult(
        seed=seed,
        quick=quick,
        policies=policies,
        fast_pages=fast_pages,
        wave_accesses=wave_accesses,
        waves=waves,
        legs=legs,
        baseline_ns=baseline_ns,
        traffic=traffic,
        sdam=sdam,
        ras=ras,
        problems=problems,
        elapsed_seconds=time.perf_counter() - started,
    )
