"""Cost/benefit pricing of a live remap.

A detected phase change does not automatically justify a remap: moving
a mapping group's live data costs real device time (every allocated
line is read through the old mapping and rewritten through the new
one), plus the CMT writes and the AMU crossbar reprogram.  The policy
prices that against the projected service-time gain of the candidate
permutation and only approves when the gain clearly amortises.

The benefit estimate is *measured, not guessed*: the recent window's
PA trace is replayed through the fast window model under both the
current and the candidate full-width mappings, and the per-window
makespan difference is projected over a fixed horizon.  The
migration estimate prices the copy as a balanced two-transfer-per-line
stream plus fixed per-chunk CMT-write and per-remap AMU-reprogram
costs.  Cooldown and per-chunk remap budgets guard against thrash even
when the detector fires legitimately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.amu import AddressMappingUnit
from repro.core.chunks import ChunkGeometry
from repro.hbm.config import HBMConfig
from repro.hbm.backend import create_backend
from repro.ledger import Record

__all__ = ["RemapDecision", "RemapPolicy", "CMT_WRITE_NS", "AMU_REPROGRAM_NS"]

#: Modeled cost of one CMT driver write (Table 3's lookup-class SRAM).
CMT_WRITE_NS = 10.0
#: Modeled cost of rewriting the AMU crossbar configuration lanes.
AMU_REPROGRAM_NS = 200.0

#: Future windows the new phase is assumed to last; the per-window gain
#: is projected over this horizon.
HORIZON_WINDOWS = 8
#: Safety factor: the projected gain must exceed this many times the
#: migration cost to approve.
BENEFIT_MARGIN = 1.2
#: Minimum windows between approved remaps (thrash guard).
COOLDOWN_WINDOWS = 4
#: Lifetime migration budget per chunk; a group holding a chunk at the
#: budget declines further remaps.
MAX_REMAPS_PER_CHUNK = 8
#: Cap on the replayed window length of a benefit probe.
PROBE_ACCESSES = 4096
#: In-flight request limit of the benefit probes' timing model.
PROBE_MAX_INFLIGHT = 64


@dataclass(frozen=True)
class RemapDecision(Record):
    """The policy's verdict on one phase-change event."""

    remap: bool
    reason: str  # approved | cooldown | same-mapping | insufficient-gain
    #          | chunk-budget | degenerate-profile
    gain_ns_per_window: float = 0.0
    projected_gain_ns: float = 0.0
    migration_cost_ns: float = 0.0
    details: dict = field(default_factory=dict)


class RemapPolicy:
    """Prices a candidate remap against its projected benefit.

    The horizon, margin, cooldown, per-chunk budget and probe length
    are the module constants above.  ``backend`` is the memory fidelity
    tier the benefit probes replay through (a backend name).
    """

    def __init__(
        self,
        hbm: HBMConfig,
        geometry: ChunkGeometry,
        backend: str = "fast",
    ):
        self.hbm = hbm
        self.geometry = geometry
        self.backend = backend
        self._model = create_backend(
            backend, hbm, max_inflight=PROBE_MAX_INFLIGHT
        )
        self._amu = AddressMappingUnit(geometry.window_bits)

    # -- pieces -------------------------------------------------------------
    def probe_window_ns(self, pa: np.ndarray, window_perm) -> float:
        """Simulated makespan of a PA window under one window mapping."""
        pa = np.asarray(pa, dtype=np.uint64)
        if pa.size > PROBE_ACCESSES:
            pa = pa[-PROBE_ACCESSES:]
        operator = self._amu.full_mapping(window_perm, self.geometry)
        return float(self._model.simulate(operator.apply(pa)).makespan_ns)

    def migration_estimate_ns(self, live_lines: int, chunks: int) -> float:
        """Priced copy traffic + control-plane reprogram for one remap.

        The copy is two line transfers per live line, optimistically
        spread over every channel (the migrator interleaves reads under
        the old mapping with writes under the new one).
        """
        copy_ns = (
            2.0
            * live_lines
            * self.hbm.effective_t_burst_ns
            / self.hbm.num_channels
        )
        return copy_ns + chunks * CMT_WRITE_NS + AMU_REPROGRAM_NS

    # -- the verdict --------------------------------------------------------
    def evaluate(
        self,
        window_pa: np.ndarray,
        candidate_perm,
        current_perm,
        *,
        windows_since_remap: int,
        live_lines: int,
        chunks: int,
        chunk_remap_counts: dict[int, int] | None = None,
        degenerate: bool = False,
    ) -> RemapDecision:
        """Approve or decline a remap for one phase-change event."""
        candidate = np.asarray(candidate_perm, dtype=np.int64)
        current = np.asarray(current_perm, dtype=np.int64)
        if degenerate:
            return RemapDecision(False, "degenerate-profile")
        if np.array_equal(candidate, current):
            return RemapDecision(False, "same-mapping")
        if windows_since_remap < COOLDOWN_WINDOWS:
            return RemapDecision(
                False,
                "cooldown",
                details={
                    "windows_since_remap": windows_since_remap,
                    "cooldown_windows": COOLDOWN_WINDOWS,
                },
            )
        over_budget = [
            chunk_no
            for chunk_no, count in (chunk_remap_counts or {}).items()
            if count >= MAX_REMAPS_PER_CHUNK
        ]
        if over_budget:
            return RemapDecision(
                False, "chunk-budget", details={"chunks": sorted(over_budget)}
            )
        current_ns = self.probe_window_ns(window_pa, current)
        candidate_ns = self.probe_window_ns(window_pa, candidate)
        gain = current_ns - candidate_ns
        projected = gain * HORIZON_WINDOWS
        cost = self.migration_estimate_ns(live_lines, chunks)
        details = {
            "current_window_ns": current_ns,
            "candidate_window_ns": candidate_ns,
            "horizon_windows": HORIZON_WINDOWS,
            "live_lines": live_lines,
            "chunks": chunks,
        }
        if gain <= 0 or projected <= BENEFIT_MARGIN * cost:
            return RemapDecision(
                False,
                "insufficient-gain",
                gain_ns_per_window=gain,
                projected_gain_ns=projected,
                migration_cost_ns=cost,
                details=details,
            )
        return RemapDecision(
            True,
            "approved",
            gain_ns_per_window=gain,
            projected_gain_ns=projected,
            migration_cost_ns=cost,
            details=details,
        )
