"""Tests for the memory-backend table and protocol."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hbm import (
    MemoryBackend,
    available_backends,
    create_backend,
    decode_trace,
    hbm2_config,
)
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
        assert available_backends() == ("event", "fast", "tiered", "vector")

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
        with pytest.raises(ConfigError, match="unknown memory backend"):
            create_backend("", CONFIG)


class TestOptionChecks:
    """An option a backend does not take is a ConfigError, not a bare
    TypeError from deep inside the factory."""

    @pytest.mark.parametrize(
        "name, option, named",
        [
            ("fast", "bogus", "fast"),
            ("vector", "reorder_window", "vector"),
            ("event", "reorder_window", "event"),
            # The default delegate gets what tiered does not take.
            ("tiered", "bogus", "fast"),
        ],
    )
    def test_unknown_option_raises_config_error(self, name, option, named):
        # The signature is bound once per factory: the second call must
        # still check.
        for _ in range(2):
            with pytest.raises(
                ConfigError, match=f"memory backend '{named}': .*'{option}'"
            ):
                create_backend(name, CONFIG, **{option: 8})

    @pytest.mark.parametrize(
        "name, bad, named",
        [
            ("fast", {"reorder_window": 0}, "fast"),
            ("vector", {"block_accesses": 0}, "vector"),
            ("event", {"max_inflight": 0}, "event"),
            # Forwarded to the default delegate, like an unknown option.
            ("tiered", {"reorder_window": 0}, "fast"),
        ],
    )
    def test_bad_value_raises_config_error(self, name, bad, named):
        (option,) = bad
        for _ in range(2):
            with pytest.raises(
                ConfigError, match=f"memory backend '{named}': {option} must"
            ):
                create_backend(name, CONFIG, **bad)

    def test_tiered_forwards_unknown_options_to_the_delegate(self):
        """The tiered backend passes what it does not take on to its
        delegate, whose own check names it."""
        with pytest.raises(ConfigError, match="'vector'.*'hysteresis'"):
            create_backend("tiered", CONFIG, delegate="vector", hysteresis=2.0)
        backend = create_backend(
            "tiered", CONFIG, delegate="vector", block_accesses=512
        )
        assert backend.delegate.block_accesses == 512

    def test_factory_config_error_names_the_backend(self):
        with pytest.raises(
            ConfigError, match=r"^memory backend 'tiered': fast_pages must"
        ):
            create_backend("tiered", CONFIG, fast_pages=-1)

    def test_delegate_error_names_both_backends(self):
        with pytest.raises(
            ConfigError,
            match=r"^memory backend 'tiered': memory backend 'fast': "
            r"reorder_window must",
        ):
            create_backend("tiered", CONFIG, reorder_window=0)

    def test_machine_backend_options_are_checked(self):
        from repro.system import system_by_key
        from repro.system.machine import Machine
        from repro.workloads import MixedStrideWorkload

        workload = MixedStrideWorkload((1,), accesses_per_stride=256)
        with pytest.raises(ConfigError, match="'hysteresis'"):
            Machine(
                system_by_key("bs_dm"),
                backend="tiered",
                backend_options={"hysteresis": 2.0},
            ).run(workload)


class TestCountDtypes:
    """``per_channel_requests`` is int64 on every tier, for empty and
    non-empty streams, including the all-slow tiered baseline."""

    @pytest.mark.parametrize(
        "name, options",
        [
            ("fast", {}),
            ("vector", {}),
            ("event", {}),
            ("tiered", {}),
            ("tiered", {"fast_pages": 0}),
            ("tiered", {"fast_pages": 0, "delegate": "event"}),
            ("tiered", {"fast_pages": 4, "delegate": "vector"}),
        ],
    )
    @pytest.mark.parametrize("size", [0, 1000])
    def test_per_channel_requests_are_int64(self, name, options, size):
        decoded = decode_trace(_trace(size), CONFIG)
        stats = create_backend(name, CONFIG, **options).simulate_decoded(
            decoded
        )
        assert stats.requests == size
        assert stats.per_channel_requests.dtype == np.int64
        assert stats.per_channel_busy_ns.dtype == np.float64
        assert stats.per_channel_requests.sum() == size


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

        with pytest.raises(ConfigError, match="unknown memory backend"):
            Machine(system_by_key("bs_dm"), backend="no-such-model")

    def test_machine_accepts_registered_backends(self):
        from repro.system import system_by_key
        from repro.system.machine import Machine

        for name in ("fast", "vector", "event"):
            machine = Machine(system_by_key("bs_dm"), backend=name)
            assert machine.backend == name
