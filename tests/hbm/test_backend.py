"""Tests for the pluggable memory-backend registry and protocol."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hbm import (
    MemoryBackend,
    available_backends,
    create_backend,
    decode_trace,
    hbm2_config,
    register_backend,
)
from repro.hbm import backend as backend_module
from repro.hbm.device import HBMDevice
from repro.hbm.fastmodel import WindowModel

CONFIG = hbm2_config()


def _trace(n: int = 4096, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = CONFIG.total_bytes // CONFIG.line_bytes
    return rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(
        CONFIG.line_bytes
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert "fast" in available_backends()
        assert "event" in available_backends()
        assert "tiered" in available_backends()

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("fast", WindowModel)
        # The registry entry is untouched by the failed attempt.
        backend = create_backend("fast", CONFIG, max_inflight=8)
        assert isinstance(backend, WindowModel)

    def test_replace_opt_in_overwrites(self):
        def stub_factory(config, **kwargs):
            return WindowModel(config, **kwargs)

        register_backend("replace-test", stub_factory)
        try:
            with pytest.raises(ConfigError, match="already registered"):
                register_backend("replace-test", WindowModel)
            register_backend("replace-test", WindowModel, replace=True)
            backend = create_backend("replace-test", CONFIG, max_inflight=8)
            assert isinstance(backend, WindowModel)
        finally:
            backend_module._REGISTRY.pop("replace-test", None)

    def test_register_builtins_idempotent(self):
        before = available_backends()
        backend_module._register_builtins()
        backend_module._register_builtins()
        assert available_backends() == before

    def test_create_fast(self):
        backend = create_backend("fast", CONFIG, max_inflight=64)
        assert isinstance(backend, WindowModel)
        assert isinstance(backend, MemoryBackend)

    def test_create_event(self):
        backend = create_backend("event", CONFIG, max_inflight=64)
        assert isinstance(backend, HBMDevice)
        assert isinstance(backend, MemoryBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown memory backend"):
            create_backend("no-such-model", CONFIG)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            register_backend("", WindowModel)

    def test_custom_backend_registration(self):
        class CountingBackend:
            """Statistics-only stub: counts requests, no timing."""

            def __init__(self, config, **kwargs):
                self.config = config
                self.inner = WindowModel(config, **kwargs)

            def simulate(self, ha):
                return self.simulate_decoded(decode_trace(ha, self.config))

            def simulate_decoded(self, decoded):
                self.seen = len(decoded)
                return self.inner.simulate_decoded(decoded)

        register_backend("counting-test", CountingBackend)
        try:
            assert "counting-test" in available_backends()
            backend = create_backend("counting-test", CONFIG, max_inflight=8)
            assert isinstance(backend, MemoryBackend)
            stats = backend.simulate(_trace(512))
            assert backend.seen == 512
            assert stats.requests == 512
        finally:
            backend_module._REGISTRY.pop("counting-test", None)
        assert "counting-test" not in available_backends()


class TestProtocolAgreement:
    @pytest.mark.parametrize("name", ["fast", "event"])
    def test_simulate_equals_simulate_decoded(self, name):
        ha = _trace(2048, seed=5)
        via_ha = create_backend(name, CONFIG, max_inflight=32).simulate(ha)
        via_decoded = create_backend(
            name, CONFIG, max_inflight=32
        ).simulate_decoded(decode_trace(ha, CONFIG))
        assert via_ha.requests == via_decoded.requests
        assert via_ha.bytes_moved == via_decoded.bytes_moved
        assert via_ha.makespan_ns == via_decoded.makespan_ns
        assert via_ha.row_hits == via_decoded.row_hits
        assert via_ha.row_misses == via_decoded.row_misses
        np.testing.assert_array_equal(
            via_ha.per_channel_requests, via_decoded.per_channel_requests
        )


class TestMachineSelection:
    def test_machine_rejects_unknown_backend(self):
        from repro.system import system_by_key
        from repro.system.machine import Machine

        with pytest.raises(ConfigError, match="unknown memory model"):
            Machine(system_by_key("bs_dm"), backend="no-such-model")

    def test_machine_accepts_registered_backends(self):
        from repro.system import system_by_key
        from repro.system.machine import Machine

        for name in ("fast", "vector", "event"):
            machine = Machine(system_by_key("bs_dm"), backend=name)
            assert machine.backend == name
