"""Table-1-calibrated application models (SPEC2006 / PARSEC substitute).

The prototype runs the real SPEC2006 and PARSEC binaries; those cannot
run here, so each application is replaced by a *variable-level model*
calibrated to the paper's own characterisation (Table 1): the number of
variables, the number of major variables, and the major variables'
size distribution.  Each major variable is given a concrete access
pattern (stream, stride-k, random, hotspot, pointer chase) so the
per-variable address traces exhibit the diversity SDAM exploits; minor
variables share the remaining 20 % of references, as Experiment 3
defines.

Nominal (paper-scale) sizes are kept for reporting; allocations are
scaled down so a full suite fits comfortably in the simulated 8 GB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError
from repro.workloads.base import (
    VariableSpec,
    Workload,
    hotspot_addresses,
    pointer_chase_addresses,
    random_addresses,
    record_addresses,
    stable_name_seed,
    strided_addresses,
    tagged_trace,
)

__all__ = ["MajorVariableModel", "ModeledWorkload", "major_sizes_mb"]

MB = 1_000_000
SCALE = 1 / 64
# Every major variable must exceed the cache hierarchy (1 MiB LLC), or
# its scaled-down working set would become cache-resident and vanish
# from the external trace the paper's mechanism operates on.
MIN_ALLOC = 2 * 1024 * 1024
MAX_ALLOC = 16 * 1024 * 1024

PATTERNS = (
    "stream",
    "stride2",
    "stride4",
    "stride8",
    "stride16",
    "stride32",
    "random",
    "hotspot",
    "chase",
    "record2",
    "record4",
    "record8",
)


@dataclass(frozen=True)
class MajorVariableModel:
    """One major variable: nominal size + access pattern."""

    name: str
    nominal_mb: float
    pattern: str

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r}")

    @property
    def alloc_bytes(self) -> int:
        """Actual allocation size after scaling and clamping."""
        scaled = int(self.nominal_mb * MB * SCALE)
        return int(np.clip(scaled, MIN_ALLOC, MAX_ALLOC))


def major_sizes_mb(count: int, avg_mb: float, min_mb: float) -> list[float]:
    """A linear size ramp matching Table 1's (count, avg, min) exactly.

    The ramp runs from ``min`` to ``2*avg - min`` so its mean is ``avg``.
    """
    if count < 1:
        raise ConfigError("need at least one major variable")
    if count == 1:
        return [avg_mb]
    max_mb = max(2 * avg_mb - min_mb, min_mb)
    return list(np.linspace(min_mb, max_mb, count))


def _burst_merge(
    primary: np.ndarray, secondary: np.ndarray, burst: int = 256
) -> np.ndarray:
    """Alternate bursts of two phases into one stream."""
    pieces = []
    p_cursor = s_cursor = 0
    while p_cursor < primary.size or s_cursor < secondary.size:
        pieces.append(primary[p_cursor : p_cursor + burst])
        p_cursor += burst
        pieces.append(secondary[s_cursor : s_cursor + burst // 2])
        s_cursor += burst // 2
    return np.concatenate(pieces) if pieces else primary


def _pattern_addresses(
    pattern: str,
    base: int,
    size: int,
    count: int,
    rng: np.random.Generator,
    phase: int,
) -> np.ndarray:
    if pattern == "stream":
        return strided_addresses(base, size, count, 1, start_line=phase)
    if pattern.startswith("stride"):
        stride = int(pattern[len("stride") :])
        return strided_addresses(base, size, count, stride, start_line=phase)
    if pattern == "random":
        return random_addresses(base, size, count, rng)
    if pattern == "hotspot":
        return hotspot_addresses(base, size, count, rng)
    if pattern == "chase":
        return pointer_chase_addresses(base, size, count, rng)
    if pattern.startswith("record"):
        record_lines = int(pattern[len("record") :])
        return record_addresses(
            base, size, count, rng, record_lines=record_lines
        )
    raise ConfigError(f"unknown pattern {pattern!r}")  # pragma: no cover


class ModeledWorkload(Workload):
    """An application modelled as its major + minor variable population."""

    MAJOR_SHARE = 0.8  # Experiment 3: majors carry 80% of references

    def __init__(
        self,
        name: str,
        majors: list[MajorVariableModel],
        nominal_variable_count: int,
        total_accesses: int = 48_000,
        threads: int = 4,
        minor_variables: int = 8,
        write_fraction: float = 0.3,
        phase_mix: float = 0.0,
    ):
        if not majors:
            raise ConfigError("a workload needs at least one major variable")
        if not 0 <= phase_mix < 1:
            raise ConfigError("phase_mix must be in [0, 1)")
        self.name = name
        self.majors = majors
        self.phase_mix = phase_mix
        """Fraction of each major's accesses spent in a secondary
        *phase* with a different pattern.  Real variables rarely have
        one pure pattern; phase mixing is what degrades the time-
        averaged bit-flip-rate representation for K-Means while the
        sequence-aware DL path still separates the bursts (the
        Section 6.2 motivation for DL-assisted clustering)."""
        self.nominal_variable_count = max(
            nominal_variable_count, len(majors)
        )
        self.total_accesses = total_accesses
        self.threads = threads
        self.minor_variables = min(
            minor_variables, max(self.nominal_variable_count - len(majors), 0)
        )
        self.write_fraction = write_fraction

    # -- variables -----------------------------------------------------------
    def variables(self) -> list[VariableSpec]:
        """Allocation sites, in stable order (index = variable id)."""
        specs = [
            VariableSpec(major.name, major.alloc_bytes) for major in self.majors
        ]
        specs.extend(
            VariableSpec(f"minor_{index}", MIN_ALLOC)
            for index in range(self.minor_variables)
        )
        return specs

    # -- Table 1 reporting ----------------------------------------------------
    def table1_nominal(self) -> dict[str, float]:
        """The Table 1 row this model was calibrated to."""
        sizes = [major.nominal_mb for major in self.majors]
        return {
            "benchmark": self.name,
            "num_variables": self.nominal_variable_count,
            "num_major_variables": len(self.majors),
            "avg_major_size_mb": float(np.mean(sizes)),
            "min_major_size_mb": float(np.min(sizes)),
        }

    # -- trace generation -------------------------------------------------------
    def trace(self, base: dict[str, int], input_seed: int = 0) -> list[AccessTrace]:
        """Per-thread VA traces for the given base addresses and input."""
        major_budget = int(self.total_accesses * self.MAJOR_SHARE)
        minor_budget = self.total_accesses - major_budget
        per_thread_major = major_budget // self.threads
        per_thread_minor = minor_budget // self.threads
        # Reference counts decay across majors (a few variables dominate),
        # while every major keeps a floor so it stays profile-visible.
        weights = 1.0 / np.sqrt(np.arange(1, len(self.majors) + 1))
        weights /= weights.sum()
        traces: list[AccessTrace] = []
        for thread in range(self.threads):
            rng = np.random.default_rng(
                stable_name_seed(self.name) * 1000 + thread * 97 + input_seed
            )
            phase = input_seed * 1031 + thread * 4099
            streams: list[tuple[np.ndarray, int, bool]] = []
            for index, major in enumerate(self.majors):
                count = max(int(per_thread_major * weights[index]), 16)
                addresses = _pattern_addresses(
                    major.pattern,
                    base[major.name],
                    major.alloc_bytes,
                    count,
                    rng,
                    phase + index * 61,
                )
                if self.phase_mix > 0:
                    # Burst a secondary pattern into the stream: the
                    # trace alternates primary/secondary segments.
                    secondary_count = int(count * self.phase_mix)
                    if secondary_count >= 8:
                        secondary_pattern = PATTERNS[
                            (index * 5 + 3) % len(PATTERNS)
                        ]
                        secondary = _pattern_addresses(
                            secondary_pattern,
                            base[major.name],
                            major.alloc_bytes,
                            secondary_count,
                            rng,
                            phase + index * 83,
                        )
                        addresses = _burst_merge(addresses, secondary)
                is_write = rng.random() < self.write_fraction
                streams.append((addresses, index, is_write))
            for minor_index in range(self.minor_variables):
                count = max(per_thread_minor // max(self.minor_variables, 1), 4)
                name = f"minor_{minor_index}"
                addresses = random_addresses(
                    base[name], MIN_ALLOC, count, rng
                )
                variable_id = len(self.majors) + minor_index
                streams.append((addresses, variable_id, False))
            traces.append(tagged_trace(streams))
        return traces
