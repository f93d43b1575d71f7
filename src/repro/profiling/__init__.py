"""Profiling substrate: variable attribution, BFRVs, major variables."""

from repro.profiling.bfrv import bit_flip_rate_vector, window_flip_rates
from repro.profiling.profiler import (
    VariableProfile,
    WorkloadProfile,
    profile_trace,
)
from repro.profiling.variables import UNATTRIBUTED, VariableInfo, VariableRegistry

__all__ = [
    "UNATTRIBUTED",
    "VariableInfo",
    "VariableProfile",
    "VariableRegistry",
    "WorkloadProfile",
    "bit_flip_rate_vector",
    "profile_trace",
    "window_flip_rates",
]
