"""Hardware-address decode: HA -> (channel, bank, row, column).

The memory controller's final stage: split a hardware address into the
physical coordinates the device serves.  Field extraction is itself a
GF(2) bit operation (a row slice of the identity), so it lowers to the
:mod:`repro.core.bitmatrix` algebra — and, crucially, it *composes*:

* :class:`DecodePlan` precomposes an address-mapping operator with the
  per-field projections, so a physical-address trace decodes straight
  to (channel, bank, row, column) in one vectorised pass per field with
  no intermediate hardware-address array;
* :func:`decode_translated` consumes an
  :class:`~repro.core.sdam.AddressTranslator`'s uniform operator —
  the fused datapath the machine's evaluate stage runs;
* :func:`decode_trace` is the identity-mapping plan, the classic
  HA-array entry point (each backend's ``simulate(ha)``, the RAS
  scrub, and the tests' reference for the fused path).

Plans are cached per (operator, config) in the process-wide, thread-safe
:func:`~repro.hbm.plancache.default_plan_cache`: an experiment sweep
compiles each live mapping once and reuses it across every trace and
every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from repro.core.bitmatrix import BitOperator, BitProjection
from repro.core.mapping import identity_mapping
from repro.core.sdam import AddressTranslator
from repro.errors import MappingError, SimulationError
from repro.hbm.config import HBMConfig
from repro.hbm.plancache import default_plan_cache

__all__ = [
    "DecodedTrace",
    "DecodePlan",
    "decode_trace",
    "decode_translated",
    "forced_miss_mask",
    "plan_for",
    "request_count",
]

#: HA fields a decoded trace carries, in plan order.
DECODE_FIELDS = ("channel", "bank", "row", "column")


@dataclass(frozen=True)
class DecodedTrace:
    """Struct-of-arrays view of a decoded hardware-address trace.

    ``global_bank`` is a device-unique bank id (channel-major), the key
    under which row-buffer state lives.
    """

    channel: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray
    global_bank: np.ndarray

    def __len__(self) -> int:
        return self.channel.size


class DecodePlan:
    """A compiled PA -> (channel, bank, row, column) pipeline.

    The plan slices ``operator``'s rows at each field of the config's
    address layout, yielding one :class:`BitProjection` per field:
    translation and field extraction fused into a single bit program.
    With the identity operator this degenerates to plain field
    extraction (one shift/mask pass per field).
    """

    def __init__(self, config: HBMConfig, operator: BitOperator | None = None):
        layout = config.layout()
        if operator is None:
            operator = identity_mapping(layout.width)
        if operator.width != layout.width:
            operator = _pad_operator(operator, layout.width)
        self.config = config
        self.operator = operator
        self._projections: list[tuple[str, BitProjection]] = [
            (name, operator.project(layout[name].shift, layout[name].width))
            for name in DECODE_FIELDS
        ]

    def fields(self, pa: np.ndarray) -> dict[str, np.ndarray]:
        """Raw int64 field arrays of the mapped addresses."""
        if not isinstance(pa, np.ndarray) or pa.dtype != np.uint64:
            pa = np.asarray(pa, dtype=np.uint64)
        return {
            name: projection.apply(pa).astype(np.int64)
            for name, projection in self._projections
        }

    def decode(self, pa: np.ndarray) -> DecodedTrace:
        """Fused translate + decode of a physical-address trace."""
        fields = self.fields(pa)
        return DecodedTrace(
            channel=fields["channel"],
            bank=fields["bank"],
            row=fields["row"],
            column=fields["column"],
            global_bank=fields["channel"] * self.config.banks_per_channel
            + fields["bank"],
        )

    def __repr__(self) -> str:
        ops = sum(p.num_ops for _, p in self._projections)
        return f"DecodePlan({self.config.name}, {self.operator!r}, {ops} ops)"


def _pad_operator(operator: BitOperator, width: int) -> BitOperator:
    """Embed a narrower operator in ``width`` bits (high bits identity)."""
    if operator.width > width:
        raise MappingError(
            f"operator width {operator.width} exceeds layout width {width}"
        )
    matrix = np.eye(width, dtype=np.uint8)
    matrix[: operator.width, : operator.width] = operator.matrix
    return BitOperator(matrix)


def plan_for(
    config: HBMConfig, operator: BitOperator | None = None
) -> DecodePlan:
    """The (cached) decode plan fusing ``operator`` with ``config``'s layout.

    Served from the process-wide :func:`default_plan_cache`.  The
    returned plan is immutable and shared — never mutate it.
    """
    if operator is None:
        operator = identity_mapping(config.layout().width)
    key = (config, operator)
    return default_plan_cache().get(key, lambda: DecodePlan(config, operator))


def decode_trace(ha: np.ndarray, config: HBMConfig) -> DecodedTrace:
    """Decode hardware addresses into device coordinates."""
    return plan_for(config).decode(ha)


def decode_translated(
    pa: np.ndarray,
    translator: AddressTranslator,
    config: HBMConfig,
) -> DecodedTrace:
    """Fused PA -> (channel, bank, row, column) for a whole trace.

    The common cases — a global mapping, or an SDAM controller whose
    trace touches one mapping — decode through a single cached
    :class:`DecodePlan` with no intermediate hardware-address array.  A
    mixed-mapping trace instead materialises HA once through the
    translator's vectorised path (for the SDAM controller a single
    crossbar-LUT gather) and decodes it with the cached identity plan:
    measured on million-access traces, one HA array beats scattering
    four field arrays per group.  Bit-identical to
    ``decode_trace(translator.translate(pa), config)``, the legacy
    two-step (tested, also through a whole ``Machine`` run).
    """
    if not isinstance(pa, np.ndarray) or pa.dtype != np.uint64:
        pa = np.asarray(pa, dtype=np.uint64)
    operator = translator.uniform_operator(pa)
    if operator is not None:
        return plan_for(config, operator).decode(pa)
    return plan_for(config).decode(translator.translate(pa))


def forced_miss_mask(
    decoded: DecodedTrace, forced_miss
) -> np.ndarray | None:
    """Check an ECC-retry mask against the trace it flags.

    Every timing tier takes ``forced_miss`` as one boolean flag per
    request of the :class:`DecodedTrace`; this is their shared up-front
    check.  Returns the mask as a boolean array (``None`` passes
    through) and raises :class:`~repro.errors.SimulationError` for a
    mask of the wrong length.
    """
    if forced_miss is None:
        return None
    mask = np.asarray(forced_miss, dtype=bool)
    if mask.shape != (len(decoded),):
        raise SimulationError(
            f"forced_miss has shape {mask.shape}, expected one flag per "
            f"request ({len(decoded)},)"
        )
    return mask


def request_count(name: str, value) -> int:
    """Check a tier's request-count knob (a window or an in-flight limit).

    Every timing tier takes these as whole numbers of requests; this is
    their shared up-front check.  Returns ``value`` as an ``int``
    (numpy integers pass) and raises
    :class:`~repro.errors.SimulationError` for a bool, a non-integral
    value or one below 1.
    """
    if isinstance(value, (bool, np.bool_)):
        raise SimulationError(f"{name} must be an integer, not {value!r}")
    try:
        count = index(value)
    except TypeError:
        raise SimulationError(
            f"{name} must be an integer, not {value!r}"
        ) from None
    if count < 1:
        raise SimulationError(f"{name} must be >= 1")
    return count
