"""Memory backends behind one protocol, selected by name.

All three fidelity tiers — the analytic :class:`~repro.hbm.fastmodel.
WindowModel` (``"fast"``), the vectorised-timing :class:`~repro.hbm.
vectormodel.VectorModel` (``"vector"``), and the event-driven reference
:class:`~repro.hbm.device.HBMDevice` (``"event"``) — consume the *same*
fused decoded trace (:class:`~repro.hbm.decode.DecodedTrace`) through
:class:`MemoryBackend`.  The machine selects a backend by name from one
fixed table, which also holds the ``"tiered"`` backend
(:class:`~repro.tier.backend.TieredBackend`):

>>> from repro.hbm import create_backend
>>> backend = create_backend("vector", hbm2_config(), max_inflight=64)
>>> stats = backend.simulate_decoded(decoded)
"""

from __future__ import annotations

import inspect
from typing import Callable, Protocol, runtime_checkable

from repro.errors import ConfigError, SimulationError
from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace
from repro.hbm.device import HBMDevice
from repro.hbm.fastmodel import WindowModel
from repro.hbm.stats import RunStats
from repro.hbm.vectormodel import VectorModel

__all__ = [
    "MemoryBackend",
    "available_backends",
    "create_backend",
]


@runtime_checkable
class MemoryBackend(Protocol):
    """One memory device model consuming decoded request streams."""

    config: HBMConfig

    def simulate(self, ha) -> RunStats:
        """Run a hardware-address trace (decodes, then simulates)."""
        ...  # pragma: no cover - protocol

    def simulate_decoded(
        self, decoded: DecodedTrace, forced_miss=None
    ) -> RunStats:
        """Run an already-decoded request stream.

        ``decoded`` is one :class:`DecodedTrace` holding the whole
        stream.  ``forced_miss`` (optional boolean mask, one flag per
        request) marks ECC-retry requests that must be charged the full
        row-miss cost.
        """
        ...  # pragma: no cover - protocol


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def create_backend(name: str, config: HBMConfig, **kwargs) -> MemoryBackend:
    """Instantiate a backend for a device configuration.

    The options are bound against the factory's signature first, so an
    option the backend does not take raises
    :class:`~repro.errors.ConfigError` naming the backend and the
    option.  (A factory taking ``**options``, such as ``"tiered"``,
    checks what it forwards through its own :func:`create_backend`, so
    a delegate's error names both backends.)  An option value the
    backend rejects (its :class:`~repro.errors.SimulationError` or
    ``ConfigError``) raises ``ConfigError`` naming the backend too.
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown memory backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    try:
        _SIGNATURES[name].bind(config, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"memory backend {name!r}: {exc}") from None
    try:
        return factory(config, **kwargs)
    except (ConfigError, SimulationError) as exc:
        raise ConfigError(f"memory backend {name!r}: {exc}") from exc


def _tiered_factory(config: HBMConfig, **kwargs) -> MemoryBackend:
    # Imported lazily: the tier package imports this module for its
    # fast-tier delegate, so a top-level import would be circular.
    from repro.tier.backend import TieredBackend

    return TieredBackend(config, **kwargs)


_BACKENDS: dict[str, Callable[..., MemoryBackend]] = {
    "fast": WindowModel,
    "event": HBMDevice,
    "vector": VectorModel,
    "tiered": _tiered_factory,
}

# Each factory's signature, computed once: every ``Machine`` builds its
# backend through :func:`create_backend`.
_SIGNATURES: dict[str, inspect.Signature] = {
    name: inspect.signature(factory) for name, factory in _BACKENDS.items()
}
