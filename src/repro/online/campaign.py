"""Adaptive-vs-static campaign on a phase-shifting workload.

The experiment behind ``python -m repro adapt``: run the
:class:`~repro.workloads.synthetic.PhaseShiftWorkload` — whose phases
are chosen so that *no* single window permutation serves the whole
trace — once on an adaptive machine (the
:class:`~repro.online.controller.AdaptiveController` watching the
external trace in windows and migrating live) and once under every
relevant static mapping: the boot identity, the paper's offline
profile-then-select mapping, and each mapping the controller itself
adopted, frozen for the whole run.

Both sides are scored identically: the external PA trace is served
window by window through the fast HBM model under whatever mapping is
programmed when the window arrives, and the adaptive side additionally
pays its full migration + reprogram overhead.  The trace is treated as
the post-cache external stream (the controller sits at the memory
controller, below the LLC), so no cache filtering is applied.

A second, stationary trace (the streaming phase for the whole run) is
fed to a fresh controller as the no-thrash control: it must perform
zero remaps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.amu import AddressMappingUnit
from repro.core.bitshuffle import select_window_permutation
from repro.core.chunks import ChunkGeometry
from repro.core.keys import stable_hash
from repro.core.sdam import SDAMController
from repro.errors import ConfigError
from repro.hbm.config import hbm2_config
from repro.hbm.backend import create_backend
from repro.ledger import OMIT, PROVENANCE, Record
from repro.mem.kernel import Kernel
from repro.mem.malloc import MappingAwareAllocator
from repro.online.controller import AdaptiveController
from repro.profiling.bfrv import window_flip_rates
from repro.workloads.base import Workload
from repro.workloads.synthetic import PhaseShiftWorkload

__all__ = ["AdaptiveCampaignResult", "run_adaptive_campaign"]


@dataclass
class AdaptiveCampaignResult(Record):
    """Everything one adaptive campaign produced.

    ``resumed`` is execution provenance, not computed content: a
    killed-and-resumed campaign fingerprints identically to an
    uninterrupted one.
    """

    derived = ("adaptive_total_ns", "best_static_ns", "speedup")

    workload: str
    seed: int
    quick: bool
    window_accesses: int
    windows: int
    adaptive_service_ns: float
    overhead_ns: float
    static_ns: dict[str, float]
    best_static: str
    remaps: int
    failed_remaps: int
    declines: int
    stationary_remaps: int
    traffic: dict = field(default_factory=dict)
    journal: list = field(default_factory=list)
    elapsed_seconds: float = field(default=0.0, metadata=PROVENANCE)
    resumed: bool = field(default=False, metadata=PROVENANCE)
    #: The speedup gate :attr:`problems` judges the run against (the
    #: CLI's ``--min-speedup``); not part of the report.
    min_speedup: float = field(default=0.0, metadata=OMIT)

    @property
    def adaptive_total_ns(self) -> float:
        """Adaptive service time with all remap overhead charged."""
        return self.adaptive_service_ns + self.overhead_ns

    @property
    def best_static_ns(self) -> float:
        """Aggregate service time of the best static single mapping."""
        return self.static_ns[self.best_static]

    @property
    def speedup(self) -> float:
        """Best static over adaptive (overhead included)."""
        if self.adaptive_total_ns <= 0:
            return 0.0
        return self.best_static_ns / self.adaptive_total_ns

    @property
    def problems(self) -> list[str]:
        """The thrash guard and the :attr:`min_speedup` gate's verdicts."""
        problems = []
        if self.stationary_remaps:
            problems.append(
                f"stationary trace triggered {self.stationary_remaps} remaps "
                "(thrash guard violated)"
            )
        if self.speedup < self.min_speedup:
            problems.append(
                f"speedup {self.speedup:.2f}x below the "
                f"--min-speedup {self.min_speedup:.2f}x gate"
            )
        return problems

    @property
    def ok(self) -> bool:
        """True when no remap thrashed and the speedup gate held."""
        return not self.problems

    def summary(self) -> str:
        """Human-readable summary: the verdict, then every static mapping."""
        lines = [
            f"{self.workload}: adaptive {self.adaptive_total_ns / 1e3:.1f} us "
            f"(overhead {self.overhead_ns / 1e3:.1f} us, "
            f"{self.remaps} remaps) vs best static "
            f"[{self.best_static}] {self.best_static_ns / 1e3:.1f} us "
            f"-> speedup {self.speedup:.2f}x"
        ]
        for label, ns in sorted(
            self.static_ns.items(), key=lambda item: item[1]
        ):
            marker = " <- best" if label == self.best_static else ""
            lines.append(f"  static {label}: {ns / 1e3:.1f} us{marker}")
        lines.append(
            f"  {self.remaps} remaps, {self.declines} declines, "
            f"{self.failed_remaps} failed; stationary control: "
            f"{self.stationary_remaps} remaps"
        )
        return "\n".join(lines)


def _build_stack(
    workload: Workload,
    geometry: ChunkGeometry,
    seed: int,
) -> tuple[Kernel, np.ndarray]:
    """Boot an SDAM kernel, allocate the workload, return its PA trace."""
    sdam = SDAMController(geometry)
    kernel = Kernel(geometry, sdam=sdam)
    space = kernel.spawn()
    allocator = MappingAwareAllocator(kernel, space)
    base = {
        spec.name: allocator.malloc(spec.size_bytes, mapping_id=0, tag=spec.name)
        for spec in workload.variables()
    }
    trace = workload.trace(base, input_seed=seed)[0]
    return kernel, space.translate_trace(trace.va)


def _windows(pa: np.ndarray, window_accesses: int):
    for start in range(0, pa.size, window_accesses):
        yield pa[start : start + window_accesses]


def _serve_static(
    pa: np.ndarray,
    perm,
    geometry: ChunkGeometry,
    model,
    window_accesses: int,
) -> float:
    """Aggregate per-window service time under one frozen mapping."""
    amu = AddressMappingUnit(geometry.window_bits)
    ha = amu.full_mapping(perm, geometry).apply(pa)
    return sum(
        float(model.simulate(window).makespan_ns)
        for window in _windows(ha, window_accesses)
    )


def run_adaptive_campaign(
    seed: int = 0,
    quick: bool = False,
    window_accesses: int = 2048,
    backend: str = "fast",
    checkpoint_path=None,
    resume: bool = False,
    checkpoint_every: int = 8,
    stop_after: int | None = None,
) -> AdaptiveCampaignResult:
    """Run the seeded adaptive-vs-static campaign.

    ``quick`` shrinks the trace and the buffer (one chunk instead of
    two) for smoke runs; the experiment's structure is unchanged.
    ``backend`` selects the memory fidelity tier the windows (adaptive
    and static alike) are scored through, and the policy's benefit
    probes with it.  The device is :func:`~repro.hbm.config.hbm2_config`.

    With ``checkpoint_path`` the campaign persists its kernel,
    controller and service accumulators every ``checkpoint_every``
    windows; ``resume=True`` continues a killed campaign from that
    file with a fingerprint bit-identical to an uninterrupted run.
    ``stop_after`` (the test/CI kill model) checkpoints and raises
    :class:`~repro.errors.CampaignInterrupted` once that many windows
    have been served.
    """
    from repro.system.checkpoint import CheckpointLoop

    if window_accesses < 1:
        raise ConfigError(
            f"window_accesses must be >= 1, got {window_accesses}"
        )
    started = time.perf_counter()
    hbm = hbm2_config()
    geometry = ChunkGeometry(total_bytes=hbm.total_bytes)
    workload = (
        PhaseShiftWorkload(
            buffer_bytes=2 * 1024 * 1024, accesses_per_phase=49152
        )
        if quick
        else PhaseShiftWorkload(
            buffer_bytes=4 * 1024 * 1024, accesses_per_phase=98304
        )
    )
    loop = CheckpointLoop(
        checkpoint_path,
        "adaptive",
        # Binds the checkpoint to the exact campaign parameters.
        stable_hash(
            "adaptive-campaign", seed, bool(quick), backend,
            int(window_accesses), workload, hbm, geometry,
        ),
        resume=resume,
        every=checkpoint_every,
        stop_after=stop_after,
    )

    # -- adaptive machine ---------------------------------------------------
    def fresh() -> dict:
        model = create_backend(backend, hbm, max_inflight=64)
        kernel, pa = _build_stack(workload, geometry, seed)
        controller = AdaptiveController(
            kernel, mapping_id=0, hbm=hbm, backend=backend
        )
        return {
            "kernel": kernel,
            "controller": controller,
            "model": model,
            "pa": pa,
            "adaptive_service": 0.0,
            "windows": 0,
            "adopted": [],
        }

    cursor, state = loop.start(fresh)
    kernel, controller = state["kernel"], state["controller"]
    model, pa, adopted = state["model"], state["pa"], state["adopted"]
    starts = list(range(0, int(pa.size), window_accesses))
    for window_index in loop.steps(
        cursor, len(starts), state, "adaptive campaign stopped after window"
    ):
        start = starts[window_index]
        window = pa[start : start + window_accesses]
        state["windows"] += 1
        ha = kernel.sdam.translate(window)
        state["adaptive_service"] += float(model.simulate(ha).makespan_ns)
        entry = controller.observe(window)
        if entry is not None and entry["kind"] == "remap":
            adopted.append(kernel.sdam.cmt.config_of(controller.mapping_id))

    # -- static baselines ---------------------------------------------------
    low, high = geometry.window_slice()
    identity = np.arange(high - low, dtype=np.int64)
    offline = select_window_permutation(
        window_flip_rates(pa, (low, high)), hbm.layout(), geometry
    )
    candidates: dict[str, np.ndarray] = {
        "identity": identity,
        "offline-bfrv": offline,
    }
    for perm in adopted:
        key = "adaptive-perm-" + "".join(f"{int(b):x}" for b in perm)
        candidates.setdefault(key, perm)
    static_ns = {
        label: _serve_static(pa, perm, geometry, model, window_accesses)
        for label, perm in candidates.items()
    }
    best_static = min(static_ns, key=lambda label: static_ns[label])

    # -- stationary control: the no-thrash guarantee ------------------------
    stationary = PhaseShiftWorkload(
        buffer_bytes=workload.buffer_bytes,
        accesses_per_phase=window_accesses * 8,
        phases=("stream",),
    )
    stat_kernel, stat_pa = _build_stack(stationary, geometry, seed)
    stat_controller = AdaptiveController(
        stat_kernel, mapping_id=0, hbm=hbm, backend=backend
    )
    for window in _windows(stat_pa, window_accesses):
        stat_controller.observe(window)

    declines = sum(
        1 for entry in controller.journal if entry["kind"] == "decline"
    )
    return AdaptiveCampaignResult(
        workload=workload.name,
        seed=seed,
        quick=quick,
        window_accesses=window_accesses,
        windows=state["windows"],
        adaptive_service_ns=state["adaptive_service"],
        overhead_ns=float(controller.traffic.overhead_ns),
        static_ns=static_ns,
        best_static=best_static,
        remaps=controller.traffic.remaps,
        failed_remaps=controller.traffic.failed_remaps,
        declines=declines,
        stationary_remaps=stat_controller.traffic.remaps,
        traffic=controller.traffic.to_dict(),
        journal=[dict(entry) for entry in controller.journal],
        elapsed_seconds=time.perf_counter() - started,
        resumed=resume,
    )
