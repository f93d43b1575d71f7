"""Seeded RAS campaigns: a faulty machine raced against a clean twin.

A :class:`RASMachine` is a small but complete software stack — SDAM
controller (with CMT shadow), kernel, process address space, migrator,
fast memory model, modeled device contents — plus a
:class:`~repro.ras.controller.RASController` scrubbing it.  A
:class:`~repro.ras.faults.DeviceFaultPlan` injects modeled-hardware
faults when the access counter crosses each spec's trigger point.

:func:`run_campaign` builds two identical machines from one seed,
drives both with identical traffic, injects the plan into one, and at
the end compares the machines' contents over the *surviving* address
space (every written line whose current location is neither poisoned
nor on faulty hardware).  Any mismatch there is silent corruption and
fails the campaign; lines destroyed by physical faults are reported as
``lines_lost`` — honest ECC-visible loss, never wrong data.

The write **journal** models software-side redundancy: every write
since the last clean scrub is kept and replayed through the healed
translation after a repair, so misdirected writes (CMT/AMU corruption
windows) are healed rather than lost.  A clean scrub is a checkpoint:
the journal is dropped, and data older than the checkpoint that a later
physical fault destroys is genuinely lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.chunks import ChunkGeometry
from repro.core.keys import stable_hash
from repro.core.sdam import SDAMController
from repro.errors import CMTError, MappingError, RASError
from repro.hbm.config import HBMConfig
from repro.hbm.decode import decode_trace
from repro.hbm.backend import create_backend
from repro.hbm.stats import DeviceHealth
from repro.ledger import PROVENANCE, Record
from repro.mem.kernel import Kernel
from repro.mem.migration import ChunkMigrator
from repro.ras.controller import RASController, RASReport
from repro.ras.faults import (
    DEVICE_AMU_MISPROGRAM,
    DEVICE_CMT_FLIP,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_HBM_ROW,
    DeviceFaultPlan,
    DeviceFaultSpec,
)
from repro.ras.storage import DeviceStorage

__all__ = [
    "CampaignResult",
    "RASMachine",
    "run_campaign",
    "small_ras_config",
]

MiB = 1024**2

#: Default campaign order: physical faults first (row before its bank's
#: bank fault before the channel), control-state upsets after.
ALL_KINDS = ("row", "bank", "channel", "cmt", "amu")


def small_ras_config() -> HBMConfig:
    """A deliberately small device so campaigns stay fast.

    64 MB, 8 channels x 4 banks, 256 B rows: 32 chunks of 2 MB with a
    15-bit window — the same window width as the paper's platform, so
    repair composition exercises the real search space.
    """
    return HBMConfig(
        name="hbm-ras",
        total_bytes=64 * MiB,
        num_channels=8,
        banks_per_channel=4,
        row_bytes=256,
    )


class RASMachine:
    """A machine with modeled device contents and a RAS controller.

    ``write``/``read`` move line-granular values through the full
    VA -> PA -> HA pipeline; accesses landing on faulty hardware are
    flagged (ECC), charged the full row-miss cost in the performance
    model, and destroy/refuse the data.  Faults from ``plan`` inject
    themselves when :attr:`accesses` passes their trigger.
    """

    def __init__(
        self,
        config: HBMConfig | None = None,
        geometry: ChunkGeometry | None = None,
        seed: int = 0,
        plan: DeviceFaultPlan | None = None,
        backend: str = "fast",
    ):
        self.config = config or small_ras_config()
        self.geometry = geometry or ChunkGeometry(
            total_bytes=self.config.total_bytes
        )
        if self.geometry.total_bytes != self.config.total_bytes:
            raise RASError("geometry capacity does not match the device")
        self.seed = seed
        self.plan = plan or DeviceFaultPlan([])
        self.sdam = SDAMController(self.geometry)
        self.kernel = Kernel(self.geometry, sdam=self.sdam)
        self.migrator = ChunkMigrator(self.kernel, hbm=self.config)
        self.backend_name = backend
        self.backend = create_backend(backend, self.config)
        self.storage = DeviceStorage()
        self.health = DeviceHealth(
            self.config.num_channels, self.config.banks_per_channel
        )
        self.space = self.kernel.spawn()
        self.controller = RASController(self, seed=seed)
        self._rng = np.random.default_rng(seed ^ 0xDEC0DE)
        # Software-side redundancy: VA -> value for every write since
        # the last clean scrub (the repair path replays it), plus the
        # HAs those writes actually landed on (possibly misdirected).
        self.journal: dict[int, int] = {}
        self.written_since_scrub: set[int] = set()
        self.written_vas: set[int] = set()
        self.accesses = 0
        self.total_ns = 0.0
        self.machine_checks = 0
        self.injected: list[DeviceFaultSpec] = []
        self.injection_log: list[dict] = []
        self._physical_faults: list[DeviceFaultSpec] = []

    # -- setup ----------------------------------------------------------------
    def add_mapping(self, window_perm) -> int:
        """Register an address mapping (the add_addr_map syscall)."""
        return self.kernel.add_addr_map(window_perm)

    def mmap(self, length: int, mapping_id: int = 0, name: str = ""):
        """mmap a region with the paper's extra mapping-id argument."""
        return self.kernel.sys_mmap(
            self.space, length, mapping_id=mapping_id, name=name
        )

    # -- fault injection -------------------------------------------------------
    def _inject_due(self) -> None:
        for spec in self.plan.pop_due(self.accesses):
            self.inject(spec)

    def inject(self, spec: DeviceFaultSpec) -> None:
        """Make one fault real, effective immediately."""
        self.injected.append(spec)
        self.injection_log.append(
            {"access": self.accesses, "spec": spec.to_dict(),
             "describe": spec.describe()}
        )
        if spec.is_physical:
            self._physical_faults.append(spec)
            self._poison_existing(spec)
        elif spec.site == DEVICE_CMT_FLIP:
            if spec.chunk_no is not None:
                self.sdam.cmt.flip_entry_bit(spec.chunk_no, spec.bit)
            else:
                self.sdam.cmt.flip_config_bit(
                    spec.mapping_index, spec.lane, spec.bit
                )
            self.sdam.invalidate_caches()
        elif spec.site == DEVICE_AMU_MISPROGRAM:
            current = self.sdam.cmt.config_of(spec.mapping_index)
            wrong = current.copy()
            while np.array_equal(wrong, current):
                self._rng.shuffle(wrong)
            self.sdam.misprogram_crossbar(spec.mapping_index, wrong)
        else:  # pragma: no cover - DeviceFaultSpec validates sites
            raise RASError(f"cannot inject {spec.site}")

    def _poison_existing(self, spec: DeviceFaultSpec) -> None:
        """A physical fault destroys whatever is stored on the region."""
        occupied = np.array(self.storage.occupied_lines(), dtype=np.uint64)
        if occupied.size == 0:
            return
        decoded = decode_trace(occupied, self.config)
        bad = self._spec_mask(spec, decoded)
        for ha in occupied[bad].tolist():
            self.storage.poison(ha)

    @staticmethod
    def _spec_mask(spec: DeviceFaultSpec, decoded) -> np.ndarray:
        mask = decoded.channel == spec.channel
        if spec.site in (DEVICE_HBM_ROW, DEVICE_HBM_BANK):
            mask = mask & (decoded.bank == spec.bank)
        if spec.site == DEVICE_HBM_ROW:
            mask = mask & (decoded.row == spec.row)
        return mask

    def _fault_mask(self, decoded) -> np.ndarray:
        """Ground truth: which accesses land on faulty hardware."""
        mask = np.zeros(len(decoded), dtype=bool)
        for spec in self._physical_faults:
            mask |= self._spec_mask(spec, decoded)
        return mask

    # -- the access path -------------------------------------------------------
    def _translate_checked(self, pa: np.ndarray) -> np.ndarray:
        """Translate, treating datapath exceptions as machine checks.

        A corrupted CMT word can push translation out of range; the
        machine-check handler scrubs (rolling the SRAM back from the
        shadow) and retries.
        """
        try:
            return self.sdam.translate(pa)
        except (CMTError, MappingError, IndexError):
            self.machine_checks += 1
            self.controller.scrub(trigger="machine-check")
            return self.sdam.translate(pa)

    def _access(self, va: np.ndarray):
        va = np.asarray(va, dtype=np.uint64)
        self._inject_due()
        pa = self.space.translate_trace(va)
        ha = self._translate_checked(pa)
        decoded = decode_trace(ha, self.config)
        errors = self._fault_mask(decoded)
        self.health.record(decoded, errors)
        stats = self.backend.simulate_decoded(decoded, forced_miss=errors)
        self.accesses += int(va.size)
        self.total_ns += stats.makespan_ns
        return ha, errors, stats

    def write(self, va: np.ndarray, values: np.ndarray):
        """Write one value per line address; returns the run stats."""
        va = np.asarray(va, dtype=np.uint64)
        values = np.asarray(values)
        ha, errors, stats = self._access(va)
        for addr, line, value, bad in zip(
            va.tolist(), ha.tolist(), values.tolist(), errors.tolist()
        ):
            self.storage.write(line, value, healthy=not bad)
            self.journal[addr] = int(value)
            self.written_since_scrub.add(line)
            self.written_vas.add(addr)
        return stats

    def read(self, va: np.ndarray):
        """``(values, ecc_errors, stats)`` for a line-address trace.

        Lost lines read as -1 with the ECC flag set — never silent
        garbage.
        """
        va = np.asarray(va, dtype=np.uint64)
        ha, errors, stats = self._access(va)
        values = np.empty(va.size, dtype=np.int64)
        ecc = np.asarray(errors, dtype=bool).copy()
        for index, line in enumerate(ha.tolist()):
            value, poisoned = self.storage.read(line)
            ecc[index] |= poisoned
            values[index] = -1 if (value is None or ecc[index]) else value
        return values, ecc, stats

    def patrol(self) -> list[dict]:
        """One patrol scrub; returns the repair actions taken."""
        return self.controller.scrub(trigger="patrol")

    # -- controller callbacks ---------------------------------------------------
    def copy_lines(self, pa_lines, reads, writes) -> None:
        """Move device contents during migration/relocation.

        Poison travels with the data, and destinations still on faulty
        hardware (a not-yet-repaired mapping) poison on arrival.
        """
        writes = np.asarray(writes, dtype=np.uint64)
        reads = np.asarray(reads, dtype=np.uint64)
        decoded = decode_trace(writes, self.config)
        bad = self._fault_mask(decoded)
        self.storage.move_many(reads.tolist(), writes.tolist())
        for dst in writes[bad].tolist():
            self.storage.poison(dst)

    def poison_suspect_writes(self, suspect_chunks) -> None:
        """Writes since the last scrub into corrupt-translation chunks
        may have landed anywhere — destroy them (the journal replay
        re-establishes their values at the corrected locations)."""
        shift = self.geometry.chunk_shift
        for line in sorted(self.written_since_scrub):
            if (line >> shift) in suspect_chunks:
                self.storage.poison(line)

    def replay_journal(self) -> float:
        """Re-issue every journaled write through the (healed)
        translation; returns the modeled cost in ns."""
        if not self.journal:
            return 0.0
        vas = np.array(sorted(self.journal), dtype=np.uint64)
        pa = self.space.translate_trace(vas)
        ha = self.sdam.translate(pa)
        decoded = decode_trace(ha, self.config)
        bad = self._fault_mask(decoded)
        for addr, line, b in zip(vas.tolist(), ha.tolist(), bad.tolist()):
            self.storage.write(line, self.journal[addr], healthy=not b)
        stats = self.backend.simulate_decoded(decoded, forced_miss=bad)
        return float(stats.makespan_ns)

    def mark_clean_scrub(self) -> None:
        """Checkpoint: drop the journal after a clean (or healed) scrub."""
        self.journal.clear()
        self.written_since_scrub.clear()

    # -- final-state inspection -------------------------------------------------
    def snapshot(self) -> dict[int, int | None]:
        """``{va: value}`` over every line ever written; None = lost.

        Reads the device through the *current* translation without
        touching the access counters or health state.
        """
        if not self.written_vas:
            return {}
        vas = np.array(sorted(self.written_vas), dtype=np.uint64)
        pa = self.space.translate_trace(vas)
        ha = self._translate_checked(pa)
        decoded = decode_trace(ha, self.config)
        bad = self._fault_mask(decoded)
        out: dict[int, int | None] = {}
        for addr, line, b in zip(vas.tolist(), ha.tolist(), bad.tolist()):
            value, poisoned = self.storage.read(line)
            out[addr] = (
                None if (b or poisoned or value is None) else int(value)
            )
        return out


@dataclass
class CampaignResult(Record):
    """Outcome of :func:`run_campaign`: the report plus any violations.

    ``resumed`` records *how* the campaign was executed, not what it
    computed; a killed-and-resumed campaign fingerprints identically to
    an uninterrupted one.
    """

    derived = ("ok",)

    report: RASReport
    problems: list[str] = field(default_factory=list)
    resumed: bool = field(default=False, metadata=PROVENANCE)

    @property
    def ok(self) -> bool:
        """True when every fault was handled and no data corrupted."""
        return self.report.ok and not self.problems

    def summary(self) -> str:
        """Human-readable campaign summary."""
        text = self.report.summary()
        if self.problems:
            text += "\n  PROBLEMS:\n" + "\n".join(
                f"    - {p}" for p in self.problems
            )
        return text


def _build_machine(
    seed: int,
    config: HBMConfig,
    geometry: ChunkGeometry,
    plan: DeviceFaultPlan | None,
    extra_mappings: int,
    backend: str = "fast",
):
    """One machine + its mapping ids; same seed => identical twin."""
    machine = RASMachine(
        config=config,
        geometry=geometry,
        seed=seed,
        plan=plan,
        backend=backend,
    )
    rng = np.random.default_rng(seed + 11)
    ids = [0]
    for _ in range(extra_mappings):
        ids.append(
            machine.add_mapping(rng.permutation(geometry.window_bits))
        )
    return machine, ids


def _make_schedule(seed, vma_specs, batches, writes_per_batch, line_bytes):
    """Deterministic traffic: per batch a full read scan + fresh writes.

    Ops reference VMAs by index so the same schedule drives both twins.
    """
    rng = np.random.default_rng(seed + 23)
    lines_of = [length // line_bytes for _index, length in vma_specs]
    schedule = []
    for _batch in range(batches):
        ops = []
        for vma_index, lines in enumerate(lines_of):
            ops.append(("read", vma_index, np.arange(lines, dtype=np.uint64)))
        vma_index = int(rng.integers(0, len(lines_of)))
        offsets = rng.choice(
            lines_of[vma_index],
            size=min(writes_per_batch, lines_of[vma_index]),
            replace=False,
        ).astype(np.uint64)
        values = rng.integers(0, 2**31, size=offsets.size)
        ops.append(("write", vma_index, np.sort(offsets), values))
        schedule.append(ops)
    return schedule


def _apply_ops(machine, vmas, ops, line_bytes) -> None:
    for op in ops:
        if op[0] == "read":
            _kind, vma_index, offsets = op
            va = np.uint64(vmas[vma_index].start) + offsets * np.uint64(
                line_bytes
            )
            machine.read(va)
        else:
            _kind, vma_index, offsets, values = op
            va = np.uint64(vmas[vma_index].start) + offsets * np.uint64(
                line_bytes
            )
            machine.write(va, values)


def _plan_from_state(machine, kinds, rng, first_trigger, spacing):
    """Target each fault at hardware the machine demonstrably uses.

    Coordinates are drawn from the populated device state so every
    injected fault is *detectable* — a row nobody ever stores to would
    never produce an ECC error, making "all faults detected" vacuous.
    """
    occupied = np.array(machine.storage.occupied_lines(), dtype=np.uint64)
    if occupied.size == 0:
        raise RASError("campaign plan needs a populated device")
    decoded = decode_trace(occupied, machine.config)
    by_row: dict[tuple[int, int, int], int] = {}
    by_bank: dict[tuple[int, int], set[int]] = {}
    for c, b, r in zip(
        decoded.channel.tolist(), decoded.bank.tolist(), decoded.row.tolist()
    ):
        by_row[(c, b, r)] = by_row.get((c, b, r), 0) + 1
        by_bank.setdefault((c, b), set()).add(r)
    health = machine.health
    rich_rows = sorted(
        key for key, n in by_row.items() if n >= health.ROW_THRESHOLD
    ) or sorted(by_row)
    rich_banks = sorted(
        key
        for key, rows in by_bank.items()
        if len(rows) >= health.BANK_ROW_THRESHOLD
    ) or sorted(by_bank)
    banks_per_channel: dict[int, int] = {}
    for c, _b in rich_banks:
        banks_per_channel[c] = banks_per_channel.get(c, 0) + 1
    needed = max(
        2,
        int(
            machine.config.banks_per_channel
            * health.CHANNEL_BANK_FRACTION
        ),
    )
    # Detection is guaranteed by the controller's device patrol scrub;
    # richness only maximises the data the fault gets to destroy, so
    # fall back to any populated channel when the dataset is clustered.
    rich_channels = sorted(
        c for c, n in banks_per_channel.items() if n >= needed
    ) or sorted({c for c, _b in by_bank})
    live_chunks = sorted(machine.kernel.physical._chunks)
    mapping_ids = [
        m for m in machine.kernel.registered_mapping_ids() if m != 0
    ]
    specs = []
    trigger = first_trigger
    used_channels: set[int] = set()
    for kind in kinds:
        if kind == "row":
            c, b, r = rich_rows[int(rng.integers(0, len(rich_rows)))]
            spec = DeviceFaultSpec(
                site=DEVICE_HBM_ROW, trigger_access=trigger,
                channel=c, bank=b, row=r,
            )
        elif kind == "bank":
            c, b = rich_banks[int(rng.integers(0, len(rich_banks)))]
            spec = DeviceFaultSpec(
                site=DEVICE_HBM_BANK, trigger_access=trigger,
                channel=c, bank=b,
            )
        elif kind == "channel":
            fresh = [c for c in rich_channels if c not in used_channels]
            pool = fresh or rich_channels
            c = pool[int(rng.integers(0, len(pool)))]
            spec = DeviceFaultSpec(
                site=DEVICE_HBM_CHANNEL, trigger_access=trigger, channel=c
            )
        elif kind == "cmt":
            spec = DeviceFaultSpec(
                site=DEVICE_CMT_FLIP,
                trigger_access=trigger,
                chunk_no=live_chunks[
                    int(rng.integers(0, len(live_chunks)))
                ],
                bit=int(rng.integers(0, 8)),
            )
        elif kind == "amu":
            spec = DeviceFaultSpec(
                site=DEVICE_AMU_MISPROGRAM,
                trigger_access=trigger,
                mapping_index=mapping_ids[
                    int(rng.integers(0, len(mapping_ids)))
                ],
            )
        else:
            raise RASError(
                f"unknown fault kind {kind!r}; known: {', '.join(ALL_KINDS)}"
            )
        if spec.channel is not None:
            used_channels.add(spec.channel)
        specs.append(spec)
        trigger += spacing
    return DeviceFaultPlan(specs)


def _match_detection(spec: DeviceFaultSpec, events: list[dict]) -> dict | None:
    """The repair event (if any) that handles an injected fault."""
    for event in events:
        action = event["action"]
        if spec.site == DEVICE_HBM_ROW and action == "repair-row":
            if (
                event["channel"] == spec.channel
                and event["bank"] == spec.bank
                and event["row"] == spec.row
            ):
                return event
        elif spec.site == DEVICE_HBM_BANK:
            if (
                action == "repair-bank"
                and event["channel"] == spec.channel
                and event["bank"] == spec.bank
            ):
                return event
            # A channel-level degradation subsumes its banks.
            if (
                action == "degrade-channel"
                and event["channel"] == spec.channel
            ):
                return event
        elif spec.site == DEVICE_HBM_CHANNEL:
            if (
                action == "degrade-channel"
                and event["channel"] == spec.channel
            ):
                return event
        elif spec.site == DEVICE_CMT_FLIP and action == "cmt-rollback":
            return event
        elif spec.site == DEVICE_AMU_MISPROGRAM and action == "amu-reprogram":
            if spec.mapping_index in event["mapping_indices"]:
                return event
    return None


def run_campaign(
    seed: int = 0,
    kinds=ALL_KINDS,
    quick: bool = True,
    backend: str = "fast",
    checkpoint_path=None,
    resume: bool = False,
    checkpoint_every: int = 1,
    stop_after: int | None = None,
) -> CampaignResult:
    """Inject a seeded multi-fault sequence and prove it was handled.

    Builds twin machines, writes an initial dataset, injects one fault
    per requested kind (staggered so each is detected before the next
    strikes), patrol-scrubs every batch, and finally compares the twins
    line by line over the surviving address space.  ``backend`` selects
    the memory fidelity tier both twins charge their accesses against;
    the device is :func:`small_ras_config`.

    With ``checkpoint_path`` the campaign persists its twins and batch
    cursor every ``checkpoint_every`` batches, and ``resume=True``
    continues a killed campaign from that file — producing a report
    bit-identical to an uninterrupted run.  ``stop_after`` (used by
    tests and CI to model a mid-campaign kill) checkpoints and raises
    :class:`~repro.errors.CampaignInterrupted` once that many batches
    have completed.
    """
    from repro.system.checkpoint import CheckpointLoop

    config = small_ras_config()
    geometry = ChunkGeometry(total_bytes=config.total_bytes)
    loop = CheckpointLoop(
        checkpoint_path,
        "ras",
        # Binds the checkpoint to the exact campaign parameters.
        stable_hash(
            "ras-campaign", seed, tuple(kinds), bool(quick), backend,
            config, geometry,
        ),
        resume=resume,
        every=checkpoint_every,
        stop_after=stop_after,
        error=RASError,
    )
    pages_per_vma = 4 if quick else 8
    writes_per_batch = 128 if quick else 256
    line_bytes = geometry.line_bytes

    # Everything below the cursor lives in the checkpoint; everything
    # else (schedules, the fault plan's coordinates) is recomputed
    # deterministically from the seed.
    batches = 2 * len(kinds) + 2

    def fresh() -> dict:
        rng = np.random.default_rng(seed)
        faulty, ids = _build_machine(seed, config, geometry, None, 2, backend)
        clean, _ids = _build_machine(seed, config, geometry, None, 2, backend)
        vma_specs = [
            (mid, pages_per_vma * geometry.page_bytes) for mid in ids
        ]
        vmas_f = [faulty.mmap(length, mid) for mid, length in vma_specs]
        vmas_c = [clean.mmap(length, mid) for mid, length in vma_specs]

        # Initial dataset: every line of every VMA, identical on both
        # twins.
        for vma_f, vma_c in zip(vmas_f, vmas_c):
            lines = vma_f.length // line_bytes
            offsets = np.arange(lines, dtype=np.uint64)
            values = rng.integers(0, 2**31, size=lines)
            va_f = np.uint64(vma_f.start) + offsets * np.uint64(line_bytes)
            va_c = np.uint64(vma_c.start) + offsets * np.uint64(line_bytes)
            faulty.write(va_f, values)
            clean.write(va_c, values)
        faulty.patrol()  # clean checkpoint before any fault
        clean.patrol()

        # One fault per kind, one quiet batch between faults so each is
        # detected and repaired before the next strikes.
        first = _make_schedule(
            seed, vma_specs, 1, writes_per_batch, line_bytes
        )[0]
        per_batch = sum(op[2].size for op in first)
        faulty.plan = _plan_from_state(
            faulty,
            kinds,
            rng,
            first_trigger=faulty.accesses + per_batch // 2,
            spacing=2 * per_batch,
        )
        return {
            "faulty": faulty,
            "clean": clean,
            "vmas_f": vmas_f,
            "vmas_c": vmas_c,
            "vma_specs": vma_specs,
        }

    cursor, state = loop.start(fresh)
    faulty, clean = state["faulty"], state["clean"]
    vmas_f, vmas_c = state["vmas_f"], state["vmas_c"]
    vma_specs = state["vma_specs"]
    schedule = _make_schedule(
        seed, vma_specs, batches, writes_per_batch, line_bytes
    )
    for batch_index in loop.steps(
        cursor, len(schedule), state, "RAS campaign stopped after batch"
    ):
        ops = schedule[batch_index]
        _apply_ops(faulty, vmas_f, ops, line_bytes)
        _apply_ops(clean, vmas_c, ops, line_bytes)
        faulty.patrol()
        clean.patrol()
    faulty.patrol()

    problems: list[str] = []
    if faulty.plan.pending:
        problems.append(
            f"{faulty.plan.pending} planned faults never fired "
            "(campaign too short)"
        )

    # Post-repair epoch: identical fresh traffic, timed on both twins,
    # gives the residual slowdown and the traffic whose fingerprint the
    # acceptance check compares.
    epoch = _make_schedule(
        seed + 101, vma_specs, 2, writes_per_batch, line_bytes
    )
    f_before, c_before = faulty.total_ns, clean.total_ns
    for ops in epoch:
        _apply_ops(faulty, vmas_f, ops, line_bytes)
        _apply_ops(clean, vmas_c, ops, line_bytes)
    f_epoch = faulty.total_ns - f_before
    c_epoch = clean.total_ns - c_before
    faulty.patrol()
    clean.patrol()

    # Surviving space: every line whose current location is healthy on
    # the faulty machine.  Over that space the twins must agree exactly
    # — any difference is silent corruption.
    base = int(vmas_f[0].start) - int(vmas_c[0].start)
    snap_f = faulty.snapshot()
    snap_c = clean.snapshot()
    surviving = {
        va: value for va, value in snap_f.items() if value is not None
    }
    mismatches = 0
    for va, value in surviving.items():
        if snap_c.get(va - base) != value:
            mismatches += 1
    if mismatches:
        problems.append(
            f"silent corruption: {mismatches} surviving lines differ "
            "from the clean twin"
        )
    fingerprint_f = stable_hash(sorted(surviving.items()))
    fingerprint_c = stable_hash(
        sorted(
            (va - base, snap_c.get(va - base)) for va in surviving
        )
    )

    detections = []
    for spec in faulty.injected:
        event = _match_detection(spec, faulty.controller.events)
        detected = event is not None
        detections.append(
            {
                "site": spec.site,
                "describe": spec.describe(),
                "detected": detected,
                "repaired": detected,
                "action": event["action"] if event else None,
                "degraded": bool(event)
                and event["action"] == "degrade-channel",
            }
        )
    all_detected = all(d["detected"] for d in detections) and not (
        faulty.plan.pending
    )
    report = RASReport(
        seed=seed,
        faults_injected=[log for log in faulty.injection_log],
        detections=detections,
        events=list(faulty.controller.events),
        scrubs=faulty.controller.scrubs,
        machine_checks=faulty.machine_checks,
        lines_migrated=faulty.controller.lines_migrated,
        pages_retired=faulty.kernel.physical.pages_retired,
        pages_relocated=faulty.controller.pages_relocated,
        repair_cost_ns=faulty.controller.repair_cost_ns,
        lines_written=len(snap_f),
        lines_survived=len(surviving),
        lines_lost=len(snap_f) - len(surviving),
        degraded=faulty.controller.degraded,
        dead_channels=sorted(faulty.controller.dead_channels),
        residual_slowdown=(f_epoch / c_epoch) if c_epoch > 0 else 1.0,
        fingerprint_match=(fingerprint_f == fingerprint_c)
        and mismatches == 0,
        all_detected=all_detected,
        all_repaired=all(d["repaired"] for d in detections),
    )
    return CampaignResult(report=report, problems=problems, resumed=resume)
