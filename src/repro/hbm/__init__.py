"""3D-memory simulator substrate: device configs, fused decode and
memory backends (three fidelity tiers, plus the tiered split)."""

from repro.hbm.backend import (
    MemoryBackend,
    available_backends,
    create_backend,
)
from repro.hbm.config import HBMConfig, ddr4_config, hbm2_config
from repro.hbm.decode import (
    DecodedTrace,
    DecodePlan,
    decode_trace,
    decode_translated,
)
from repro.hbm.device import HBMDevice
from repro.hbm.fastmodel import WindowModel, row_hit_mask
from repro.hbm.plancache import PlanCache, default_plan_cache
from repro.hbm.stats import DeviceHealth, RunStats
from repro.hbm.vectormodel import VectorModel

__all__ = [
    "DecodedTrace",
    "DecodePlan",
    "DeviceHealth",
    "HBMConfig",
    "HBMDevice",
    "MemoryBackend",
    "PlanCache",
    "RunStats",
    "VectorModel",
    "WindowModel",
    "available_backends",
    "create_backend",
    "ddr4_config",
    "decode_trace",
    "decode_translated",
    "default_plan_cache",
    "hbm2_config",
    "row_hit_mask",
]
