"""Every sweep entry forwards all of ``Machine``'s arguments.

A session passes its keyword arguments to every cell's ``Machine``, so
an argument such as ``backend_options`` reaches every cell without the
runner listing it.  ``Session.run`` is the one-cell ``Session.sweep``,
so a lone ``BS+BSM`` cell must equal ``Machine.run``'s own-profile mix.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hbm.config import hbm2_config
from repro.system import Machine, Session, frequency_sweep, system_by_key
from repro.workloads import BFSWorkload, MixedStrideWorkload, spec2006_workload

TIERED = dict(
    backend="tiered", backend_options={"policy": "smart", "fast_pages": 8}
)
SYSTEMS = ("bs_dm", "bs_bsm", "sdm_bsm")


def workload():
    return MixedStrideWorkload(strides=(1, 16), accesses_per_stride=600)


def expected(key):
    """The cell as a bare ``Machine.run`` computes it."""
    return Machine(system_by_key(key), **TIERED).run(workload()).fingerprint()


def table_fingerprints(table):
    return {
        system: result.fingerprint()
        for system, result in table.results[workload().name].items()
    }


class TestBackendOptionsReachEveryCell:
    def test_session_run(self):
        session = Session(**TIERED)
        for key in SYSTEMS:
            result = session.run(workload(), key)
            assert result.tier_traffic is not None
            assert result.fingerprint() == expected(key)

    def test_session_sweep(self):
        suite = Session(**TIERED).sweep(
            [workload()], list(SYSTEMS)
        )
        assert not suite.errors
        assert table_fingerprints(suite.table) == {
            system_by_key(key).label: expected(key) for key in SYSTEMS
        }

    def test_frequency_sweep(self):
        scales = (1.0, 0.5)
        out = frequency_sweep(
            [workload()],
            system_by_key("sdm_bsm"),
            system_by_key("bs_dm"),
            scales=scales,
            **TIERED,
        )
        for scale in scales:
            hbm = hbm2_config().scaled(scale)
            base, sdam = (
                Machine(system_by_key(key), hbm=hbm, **TIERED).run(workload())
                for key in ("bs_dm", "sdm_bsm")
            )
            speedup = base.time_ns / sdam.time_ns
            assert out[scale] == float(np.exp(np.mean(np.log([speedup]))))

    def test_backend_options_key_the_result(self):
        small = Session(**TIERED).run(workload(), "bs_dm")
        large = Session(
            backend="tiered",
            backend_options={"policy": "smart", "fast_pages": 4096},
        ).run(workload(), "bs_dm")
        assert small.tier_traffic != large.tier_traffic


@pytest.mark.parametrize("engine", ["cpu", "accelerator"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: MixedStrideWorkload(strides=(1, 4, 8, 16)),
        lambda: spec2006_workload("perlbench"),
        BFSWorkload,
    ],
    ids=["copy-mixed", "perlbench", "bfs"],
)
def test_one_cell_suite_mix_is_the_own_profile(make, engine):
    bs_bsm = system_by_key("bs_bsm")
    cell = Session(engine=engine).run(make(), bs_bsm)
    own = Machine(bs_bsm, engine=engine).run(make())
    assert cell.fingerprint() == own.fingerprint()


class TestBadArgumentsFailBeforeProfiling:
    @pytest.mark.parametrize(
        "machine_kwargs",
        [
            dict(backend="fast", backend_options={"reorder_window": 0}),
            dict(backend="tiered", backend_options={"bogus": 1}),
            dict(backend="tiered", backend_options={"fast_pages": -1}),
            dict(no_such_argument=1),
        ],
        ids=["bad-value", "unknown-option", "tiered-value", "unknown-argument"],
    )
    def test_sweep_raises_config_error(self, monkeypatch, machine_kwargs):
        profiled = []
        monkeypatch.setattr(
            Machine, "profile", lambda self, *a, **k: profiled.append(a)
        )
        with pytest.raises(ConfigError):
            Session(**machine_kwargs).sweep([workload()], ["bs_dm", "sdm_bsm"])
        assert profiled == []
