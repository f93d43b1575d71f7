"""Translation-datapath microbenchmark (``python -m repro bench``).

Measures the hot address-math stages of every sweep cell — *translate*
(PA -> HA), *decode* (HA -> channel/bank/row/column) and *evaluate*
(translate + decode + the fast window model) — for the paper's mapping
families, and compares the fused bit-operator pipeline against the
**pre-refactor baseline**: the per-bit shift/mask loop the mapping
classes used before they lowered to :mod:`repro.core.bitmatrix`, plus
the field-by-field extraction ``decode_trace`` used before plans.  The
evaluate bench (``--evaluate``) likewise times the vector tier against
the event tier's pre-rewrite per-object loop, :class:`EventLoopBaseline`.
The baseline implementations are kept verbatim in this module so the
speedup is recorded against a fixed reference *in the same run*, on the
same host, giving future PRs a perf trajectory to compare against
(``BENCH_translation.json``, ``BENCH_evaluate.json``).

Correctness is asserted, not assumed: every fused cell is checked
bit-identical to its baseline before it is timed, and so is the live
event tier against :class:`EventLoopBaseline`.
"""

from __future__ import annotations

import heapq
import json
import time
from pathlib import Path

import numpy as np

from repro.core.bitshuffle import select_global_mapping
from repro.core.chunks import ChunkGeometry
from repro.core.hashing import default_hash_mapping
from repro.core.mapping import PermutationMapping, identity_mapping
from repro.core.sdam import GlobalMappingTranslator, SDAMController
from repro.errors import SimulationError
from repro.hbm.channel import Channel, ChannelRequest
from repro.hbm.config import HBMConfig, hbm2_config
from repro.hbm.decode import DecodedTrace, decode_translated
from repro.hbm.fastmodel import WindowModel
from repro.hbm.stats import RunStats
from repro.profiling.bfrv import bit_flip_rate_vector

__all__ = [
    "run_benchmark",
    "run_evaluate_benchmark",
    "run_tier_benchmark",
    "write_report",
    "DEFAULT_REPORT_PATH",
    "EVALUATE_REPORT_PATH",
    "TIER_REPORT_PATH",
]

DEFAULT_REPORT_PATH = "BENCH_translation.json"
EVALUATE_REPORT_PATH = "BENCH_evaluate.json"
TIER_REPORT_PATH = "BENCH_tier.json"
SCENARIOS = ("bs_dm", "bs_bsm", "bs_hm", "sdm_bsm")
STAGES = ("translate", "decode", "translate_decode", "evaluate")


# -- the pre-refactor reference implementations (the recorded baseline) ----
def _reference_apply_permutation(source: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """Old ``PermutationMapping.apply``: one shift/mask pass per HA bit."""
    ha = np.zeros_like(pa)
    for ha_bit in range(source.size):
        pa_bit = int(source[ha_bit])
        if pa_bit == ha_bit:
            ha |= pa & np.uint64(1 << ha_bit)
        else:
            bit = (pa >> np.uint64(pa_bit)) & np.uint64(1)
            ha |= bit << np.uint64(ha_bit)
    return ha


def _reference_apply_linear(row_masks: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """Old ``LinearMapping.apply``: per-row popcount parity."""
    ha = np.zeros_like(pa)
    for ha_bit in range(row_masks.size):
        mask = row_masks[ha_bit]
        if mask == 0:
            continue
        v = (pa & mask).copy()
        for shift in (32, 16, 8, 4, 2, 1):
            v ^= v >> np.uint64(shift)
        ha |= (v & np.uint64(1)) << np.uint64(ha_bit)
    return ha


def _row_masks(matrix: np.ndarray) -> np.ndarray:
    return np.array(
        [
            int("".join("1" if b else "0" for b in row[::-1]), 2)
            for row in matrix
        ],
        dtype=np.uint64,
    )


def _reference_decode(ha: np.ndarray, config: HBMConfig) -> DecodedTrace:
    """Old ``decode_trace``: layout field extraction on a full HA array."""
    layout = config.layout()
    fields = layout.decode(ha)
    channel = fields["channel"].astype(np.int64)
    bank = fields["bank"].astype(np.int64)
    return DecodedTrace(
        channel=channel,
        bank=bank,
        row=fields["row"].astype(np.int64),
        column=fields["column"].astype(np.int64),
        global_bank=channel * config.banks_per_channel + bank,
    )


def _make_reference_translate(translator):
    """The pre-refactor translate path for either translator kind."""
    if isinstance(translator, SDAMController):
        controller = translator

        def translate(pa: np.ndarray) -> np.ndarray:
            controller.geometry.check_address(pa)
            chunk_no = controller.geometry.chunk_number(pa)
            mapping_idx = controller.cmt.mapping_index_of(np.asarray(chunk_no))
            ha = pa.copy()
            for idx in np.unique(mapping_idx):
                if idx == 0:
                    continue
                select = mapping_idx == idx
                source = controller.full_mapping(int(idx)).source
                ha[select] = _reference_apply_permutation(source, pa[select])
            return ha

        return translate
    mapping = translator.mapping
    if isinstance(mapping, PermutationMapping):
        source = mapping.source
        return lambda pa: _reference_apply_permutation(source, pa)
    row_masks = _row_masks(mapping.as_matrix())
    return lambda pa: _reference_apply_linear(row_masks, pa)


# -- the pre-rewrite event loop (the evaluate bench's baseline) ------------
class EventLoopBaseline:
    """The event tier as it ran before its flat-list rewrite.

    Kept verbatim — one :class:`~repro.hbm.channel.Channel` object per
    channel, one :class:`~repro.hbm.channel.ChannelRequest` per request
    and a full channel scan per issue — as the fixed baseline of
    :func:`run_evaluate_benchmark`.  It must produce the same
    :class:`~repro.hbm.stats.RunStats` as the live
    :class:`~repro.hbm.device.HBMDevice`; the bench asserts that before
    timing, and ``tests/hbm/test_event_differential.py`` checks it on
    random streams.
    """

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        frfcfs_window: int = 8,
    ):
        if max_inflight < 1:
            raise SimulationError("max_inflight must be >= 1")
        self.config = config
        self.max_inflight = max_inflight
        self.frfcfs_window = frfcfs_window

    def _new_channels(self) -> list[Channel]:
        return [
            Channel(
                banks_per_channel=self.config.banks_per_channel,
                t_burst_ns=self.config.effective_t_burst_ns,
                t_row_miss_ns=self.config.effective_t_row_miss_ns,
                frfcfs_window=self.frfcfs_window,
            )
            for _ in range(self.config.num_channels)
        ]

    def simulate_decoded(
        self,
        decoded: DecodedTrace,
        forced_miss: np.ndarray | None = None,
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``decoded`` may be a single :class:`DecodedTrace` or an
        iterable of chunks — the event loop consumes requests one at a
        time, so chunked input is bit-identical to the whole trace and
        needs no re-decoding (only one chunk is live at a time).
        ``forced_miss`` (optional boolean mask, one flag per access,
        whole-trace form only) marks ECC-retry requests that must pay
        the full miss cost.
        """
        if isinstance(decoded, DecodedTrace):
            if forced_miss is not None:
                forced_miss = np.asarray(forced_miss, dtype=bool)
            chunks = iter([(decoded, forced_miss)])
        else:
            if forced_miss is not None:
                raise SimulationError(
                    "forced_miss requires a whole DecodedTrace, not chunks"
                )
            chunks = ((chunk, None) for chunk in decoded)
        channels = self._new_channels()
        num_channels = self.config.num_channels

        completions: list[float] = []
        makespan = 0.0
        admit_time = 0.0
        completed = 0
        issued = 0

        def serve_one() -> None:
            """Issue the request with the earliest feasible start."""
            nonlocal makespan
            best_start = float("inf")
            best_channel: Channel | None = None
            for channel in channels:
                if not channel.has_work():
                    continue
                start = channel.next_start_estimate()
                if start < best_start:
                    best_start = start
                    best_channel = channel
            if best_channel is None:  # pragma: no cover - guarded by callers
                raise SimulationError("no queued work to serve")
            _req, done, _hit = best_channel.service_next(best_start)
            heapq.heappush(completions, done)
            makespan = max(makespan, done)

        n = 0
        work_remaining = 0
        for chunk, chunk_forced in chunks:
            for index in range(len(chunk)):
                # Admission control: wait for a window slot.
                while issued - completed >= self.max_inflight:
                    if not completions:
                        serve_one()
                        work_remaining -= 1
                    else:
                        admit_time = max(admit_time, heapq.heappop(completions))
                        completed += 1
                channel = channels[chunk.channel[index]]
                channel.enqueue(
                    ChannelRequest(
                        index=n + index,
                        bank=int(chunk.bank[index]),
                        row=int(chunk.row[index]),
                        arrival_ns=admit_time,
                        forced_miss=bool(chunk_forced[index])
                        if chunk_forced is not None
                        else False,
                    )
                )
                issued += 1
                work_remaining += 1
            n += len(chunk)

        if n == 0:
            zeros = np.zeros(num_channels)
            return RunStats(0, 0, 0.0, 0, 0, num_channels, zeros, zeros)

        while work_remaining > 0:
            serve_one()
            work_remaining -= 1

        per_channel_requests = np.array(
            [channel.served for channel in channels], dtype=np.int64
        )
        per_channel_busy = np.array(
            [channel.busy_ns for channel in channels], dtype=np.float64
        )
        hits = sum(bank.hits for channel in channels for bank in channel.banks)
        misses = sum(bank.misses for channel in channels for bank in channel.banks)
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=makespan,
            row_hits=hits,
            row_misses=misses,
            num_channels=num_channels,
            per_channel_requests=per_channel_requests,
            per_channel_busy_ns=per_channel_busy,
        )


# -- scenario construction --------------------------------------------------
def _build_translator(scenario: str, config: HBMConfig, pa: np.ndarray, seed: int):
    layout = config.layout()
    if scenario == "bs_dm":
        return GlobalMappingTranslator(identity_mapping(layout.width))
    if scenario == "bs_hm":
        return GlobalMappingTranslator(default_hash_mapping(layout))
    if scenario == "bs_bsm":
        rates = bit_flip_rate_vector(pa, layout.width)
        return GlobalMappingTranslator(select_global_mapping(rates, layout))
    if scenario == "sdm_bsm":
        geometry = ChunkGeometry(total_bytes=config.total_bytes)
        controller = SDAMController(geometry)
        rng = np.random.default_rng(seed)
        mapping_ids = [
            controller.register_mapping(rng.permutation(geometry.window_bits))
            for _ in range(8)
        ]
        for chunk_no in range(geometry.num_chunks):
            controller.assign_chunk(
                chunk_no, mapping_ids[chunk_no % len(mapping_ids)]
            )
        return controller
    raise ValueError(f"unknown bench scenario {scenario!r}")


def _assert_equal_decoded(a: DecodedTrace, b: DecodedTrace, what: str) -> None:
    for name in ("channel", "bank", "row", "column", "global_bank"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            raise AssertionError(
                f"{what}: fused {name} diverges from the baseline"
            )


def _time_ns(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - start)
    return float(best)


def _cell(baseline_ns: float, fused_ns: float, accesses: int) -> dict:
    return {
        "baseline_ns": baseline_ns,
        "fused_ns": fused_ns,
        "speedup": baseline_ns / fused_ns if fused_ns else float("inf"),
        "baseline_maccesses_per_s": accesses * 1e3 / baseline_ns,
        "fused_maccesses_per_s": accesses * 1e3 / fused_ns,
    }


def run_benchmark(
    accesses: int = 1_000_000,
    seed: int = 0,
    repeats: int = 3,
    config: HBMConfig | None = None,
    scenarios: tuple[str, ...] = SCENARIOS,
) -> dict:
    """Time baseline vs fused translate/decode/evaluate; return the report.

    The headline number — the acceptance gate and the trajectory future
    PRs compare against — is ``summary.translate_decode`` (geomean over
    scenarios of baseline translate+decode time over fused time).
    """
    config = config or hbm2_config()
    rng = np.random.default_rng(seed)
    line = config.line_bytes
    pa = (
        rng.integers(0, config.total_bytes // line, accesses, dtype=np.uint64)
        * np.uint64(line)
    )
    model = WindowModel(config, max_inflight=64)
    cells: dict[str, dict] = {}
    for scenario in scenarios:
        translator = _build_translator(scenario, config, pa, seed)
        reference_translate = _make_reference_translate(translator)

        # Bit-exactness first; only a correct pipeline gets timed.
        baseline_decoded = _reference_decode(reference_translate(pa), config)
        fused_decoded = decode_translated(pa, translator, config)
        _assert_equal_decoded(baseline_decoded, fused_decoded, scenario)

        translate_base = _time_ns(lambda: reference_translate(pa), repeats)
        translate_fused = _time_ns(lambda: translator.translate(pa), repeats)
        ha = translator.translate(pa)
        decode_base = _time_ns(lambda: _reference_decode(ha, config), repeats)
        decode_fused = _time_ns(
            lambda: decode_translated(
                ha, _identity_translator_for(config), config
            ),
            repeats,
        )
        fused_pipeline = _time_ns(
            lambda: decode_translated(pa, translator, config), repeats
        )
        evaluate_base = _time_ns(
            lambda: model.simulate_decoded(
                _reference_decode(reference_translate(pa), config)
            ),
            repeats,
        )
        evaluate_fused = _time_ns(
            lambda: model.simulate_decoded(
                decode_translated(pa, translator, config)
            ),
            repeats,
        )
        cells[scenario] = {
            "translate": _cell(translate_base, translate_fused, accesses),
            "decode": _cell(decode_base, decode_fused, accesses),
            "translate_decode": _cell(
                translate_base + decode_base, fused_pipeline, accesses
            ),
            "evaluate": _cell(evaluate_base, evaluate_fused, accesses),
        }
    summary = {
        stage: float(
            np.exp(
                np.mean(
                    [np.log(cells[s][stage]["speedup"]) for s in scenarios]
                )
            )
        )
        for stage in STAGES
    }
    return {
        "schema": 1,
        "benchmark": "translation-datapath",
        "accesses": int(accesses),
        "seed": int(seed),
        "repeats": int(repeats),
        "config": {
            "name": config.name,
            "address_bits": config.address_bits,
            "num_channels": config.num_channels,
        },
        "unix_time": time.time(),
        "cells": cells,
        "summary_speedup_geomean": summary,
    }


def run_evaluate_benchmark(
    accesses: int = 200_000,
    seed: int = 0,
    repeats: int = 2,
    config: HBMConfig | None = None,
    scenarios: tuple[str, ...] = SCENARIOS,
    backend: str = "vector",
    chunk_accesses: int = 1 << 16,
) -> dict:
    """Time end-to-end ``evaluate`` under the event reference vs ``backend``.

    The companion of :func:`run_benchmark` for the memory-model wall:
    the *baseline* is the pre-vectorization event-loop evaluate (fused
    translate+decode feeding :class:`EventLoopBaseline`, the event
    tier's per-object loop as it was before its flat-list rewrite), the
    *candidate* is the chunk-streamed ``backend`` tier (``"vector"`` by
    default).  The headline number — the acceptance gate — is
    ``summary_speedup_geomean.evaluate``.

    The live event tier (:class:`~repro.hbm.device.HBMDevice`) is
    asserted to give the baseline's exact :class:`~repro.hbm.stats.
    RunStats` before anything is timed, and each cell records its time
    and the candidate's speedup over it under ``live_event`` (ungated;
    ``summary_speedup_geomean.live_event`` is their geomean), so the
    report also states the gap to the event tier as it runs today.

    Each cell also records a calibration block (makespan ratio,
    throughput ratio, row-hit-rate delta of candidate vs event) so the
    speedup is never reported detached from the fidelity it was bought
    at; the hard per-scenario bands live in
    ``tests/hbm/test_calibration.py``.
    """
    from repro.hbm.backend import create_backend
    from repro.hbm.decode import iter_decoded_chunks

    config = config or hbm2_config()
    rng = np.random.default_rng(seed)
    line = config.line_bytes
    pa = (
        rng.integers(0, config.total_bytes // line, accesses, dtype=np.uint64)
        * np.uint64(line)
    )
    baseline_model = EventLoopBaseline(config, max_inflight=64)
    event_model = create_backend("event", config, max_inflight=64)
    candidate_model = create_backend(backend, config, max_inflight=64)
    cells: dict[str, dict] = {}
    for scenario in scenarios:
        translator = _build_translator(scenario, config, pa, seed)

        def run_baseline():
            return baseline_model.simulate_decoded(
                decode_translated(pa, translator, config)
            )

        def run_event():
            return event_model.simulate_decoded(
                decode_translated(pa, translator, config)
            )

        def run_candidate():
            return candidate_model.simulate_decoded(
                iter_decoded_chunks(pa, translator, config, chunk_accesses)
            )

        base_stats = run_baseline()
        if run_event().to_dict() != base_stats.to_dict():
            raise AssertionError(
                f"{scenario}: live event tier diverges from the baseline"
            )
        cand_stats = run_candidate()
        baseline_ns = _time_ns(run_baseline, repeats)
        event_ns = _time_ns(run_event, repeats)
        candidate_ns = _time_ns(run_candidate, repeats)
        cells[scenario] = {
            "evaluate": _cell(baseline_ns, candidate_ns, accesses),
            "live_event": {
                "event_ns": event_ns,
                "speedup": event_ns / candidate_ns,
                "event_maccesses_per_s": accesses * 1e3 / event_ns,
            },
            "calibration": {
                "makespan_ratio": cand_stats.makespan_ns
                / base_stats.makespan_ns
                if base_stats.makespan_ns
                else float("inf"),
                "throughput_ratio": cand_stats.throughput_gbps
                / base_stats.throughput_gbps
                if base_stats.throughput_gbps
                else float("inf"),
                "hit_rate_delta": cand_stats.row_hit_rate
                - base_stats.row_hit_rate,
                "event_makespan_ns": base_stats.makespan_ns,
                "candidate_makespan_ns": cand_stats.makespan_ns,
            },
        }
    summary = {
        key: float(
            np.exp(
                np.mean([np.log(cells[s][key]["speedup"]) for s in scenarios])
            )
        )
        for key in ("evaluate", "live_event")
    }
    return {
        "schema": 1,
        "benchmark": "end-to-end-evaluate",
        "backend": backend,
        "chunk_accesses": int(chunk_accesses),
        "accesses": int(accesses),
        "seed": int(seed),
        "repeats": int(repeats),
        "config": {
            "name": config.name,
            "address_bits": config.address_bits,
            "num_channels": config.num_channels,
        },
        "unix_time": time.time(),
        "cells": cells,
        "summary_speedup_geomean": summary,
    }


def run_tier_benchmark(
    accesses: int = 65_536,
    seed: int = 0,
    repeats: int = 2,
    config: HBMConfig | None = None,
    footprint_bytes: int = 4 * 1024 * 1024,
) -> dict:
    """SmartSwap tiered placement vs the all-slow baseline.

    For each workload shape (hot/cold skew and uniform capacity
    pressure) the same trace runs through two tiered backends: SmartSwap
    with a fast tier a quarter of the footprint, and the all-slow
    baseline (``fast_pages=0``).  Cells record both the *modeled*
    makespans — the headline ``speedup`` and the acceptance gate
    ``summary_speedup_geomean.smart`` — and the host simulation time,
    plus each side's swap/translation traffic so the placement win is
    never detached from the overhead it was bought at.
    """
    from repro.tier.backend import TieredBackend
    from repro.workloads.synthetic import TieredPressureWorkload

    config = config or hbm2_config()
    fast_pages = (footprint_bytes >> 12) // 4
    cells: dict[str, dict] = {}
    for scenario, hot_fraction in (("skew", 0.9), ("pressure", 0.0)):
        workload = TieredPressureWorkload(
            footprint_bytes=footprint_bytes,
            hot_fraction=hot_fraction,
            accesses=accesses,
        )
        ha = workload.trace({"arena": 0}, input_seed=seed)[0].va
        smart = TieredBackend(config, policy="smart", fast_pages=fast_pages)
        all_slow = TieredBackend(config, policy="slow", fast_pages=0)

        def run_smart():
            return smart.simulate(ha)

        def run_all_slow():
            return all_slow.simulate(ha)

        smart_stats = run_smart()
        smart_traffic = smart.last_traffic.to_dict()
        slow_stats = run_all_slow()
        slow_traffic = all_slow.last_traffic.to_dict()
        smart_host_ns = _time_ns(run_smart, repeats)
        slow_host_ns = _time_ns(run_all_slow, repeats)
        cells[scenario] = {
            "smart_ns": smart_stats.makespan_ns,
            "all_slow_ns": slow_stats.makespan_ns,
            "speedup": (
                slow_stats.makespan_ns / smart_stats.makespan_ns
                if smart_stats.makespan_ns
                else float("inf")
            ),
            "host_smart_ns": smart_host_ns,
            "host_all_slow_ns": slow_host_ns,
            "smart_traffic": smart_traffic,
            "all_slow_traffic": slow_traffic,
        }
    geomean = float(
        np.exp(np.mean([np.log(cell["speedup"]) for cell in cells.values()]))
    )
    return {
        "schema": 1,
        "benchmark": "tiered-memory",
        "fast_pages": int(fast_pages),
        "footprint_bytes": int(footprint_bytes),
        "accesses": int(accesses),
        "seed": int(seed),
        "repeats": int(repeats),
        "config": {
            "name": config.name,
            "address_bits": config.address_bits,
            "num_channels": config.num_channels,
        },
        "unix_time": time.time(),
        "cells": cells,
        "summary_speedup_geomean": {"smart": geomean},
    }


_identity_translators: dict[HBMConfig, GlobalMappingTranslator] = {}


def _identity_translator_for(config: HBMConfig) -> GlobalMappingTranslator:
    translator = _identity_translators.get(config)
    if translator is None:
        translator = GlobalMappingTranslator(
            identity_mapping(config.layout().width)
        )
        _identity_translators[config] = translator
    return translator


def write_report(report: dict, path: "str | Path") -> Path:
    """Write the benchmark report as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
