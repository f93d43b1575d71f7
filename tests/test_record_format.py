"""The serialised form of every record, checked from its declarations.

Every :class:`repro.ledger.Record` subclass in the package gets three
checks over one populated instance:

* ``to_dict()`` keys are the declared fields, in order, minus the
  ``OMIT`` ones, then ``derived``;
* ``from_dict(to_dict())`` gives the same dict back;
* ``fingerprint()`` differs from ``to_dict()`` only in the
  ``PROVENANCE`` fields, each reset to its default.

The campaign reports' whole ``to_dict()`` content is pinned as well:
the digests below were recorded from the hand-written serialisers the
reports had before they moved onto ``Record``, before any source edit.
The goldens in ``tests/test_campaign_golden.py`` hash ``fingerprint()``,
which resets ``resumed``; these hash ``to_dict()`` of a result marked
resumed, so a change to a provenance field shows here.
"""

import hashlib
import json
from dataclasses import MISSING, fields

import numpy as np
import pytest

from repro.hbm.stats import RunStats
from repro.ledger import Ledger, Record
from repro.online.campaign import (
    AdaptiveCampaignResult,
    run_adaptive_campaign,
)
from repro.online.policy import RemapDecision
from repro.ras.campaign import CampaignResult, run_campaign
from repro.ras.controller import RASReport
from repro.ras.faults import DEVICE_HBM_ROW, DeviceFaultSpec
from repro.system.experiment import SpeedupTable
from repro.system.machine import ExternalSummary, MachineResult
from repro.system.runner import CellError, StageMetrics, SuiteResult
from repro.tier.campaign import TierCampaignResult, run_tier_campaign
from tests.test_ledger_format import POPULATED

#: The one record that keeps a hand-written ``to_dict``, ``from_dict``
#: and ``fingerprint``: the stage-cache and ``sim_digest`` format, which
#: reduces the external stream and the selection by hand.
HAND_WRITTEN = {MachineResult}


def _machine_result(system: str, makespan_ns: float) -> MachineResult:
    return MachineResult(
        workload="copy",
        system=system,
        stats=RunStats(
            requests=4,
            bytes_moved=256,
            makespan_ns=makespan_ns,
            row_hits=3,
            row_misses=1,
            num_channels=2,
            per_channel_requests=np.array([3, 1], dtype=np.int64),
            per_channel_busy_ns=np.array([30.0, 10.0]),
        ),
        external=ExternalSummary(
            l1_hit_rate=0.5,
            llc_hit_rate=0.25,
            program_accesses=8,
            external_accesses=4,
        ),
        selection=None,
        compute_ns=12.5,
    )


def _table() -> SpeedupTable:
    table = SpeedupTable(baseline_label="BS+DM")
    table.add(_machine_result("BS+DM", 100.0))
    table.add(_machine_result("SDM+BSM", 80.0))
    return table


def _spec() -> DeviceFaultSpec:
    return DeviceFaultSpec(
        DEVICE_HBM_ROW, trigger_access=64, channel=1, bank=2, row=3
    )


#: One populated instance of every converted record.  Provenance fields
#: hold a value other than their default, so the fingerprint check has
#: something to reset.
SAMPLES = {
    **{cls: build for cls, build, _ in POPULATED.values()},
    AdaptiveCampaignResult: lambda: AdaptiveCampaignResult(
        workload="phase-shift",
        seed=3,
        quick=True,
        window_accesses=256,
        windows=4,
        adaptive_service_ns=900.0,
        overhead_ns=100.0,
        static_ns={"identity": 1500.0, "offline-bfrv": 1200.0},
        best_static="offline-bfrv",
        remaps=1,
        failed_remaps=0,
        declines=2,
        stationary_remaps=0,
        traffic={"remaps": 1},
        journal=[{"window": 2, "decision": {"remap": True}}],
        elapsed_seconds=1.5,
        resumed=True,
        min_speedup=1.1,
    ),
    TierCampaignResult: lambda: TierCampaignResult(
        seed=0,
        quick=True,
        policies=["smart", "fast"],
        fast_pages=8,
        wave_accesses=64,
        waves=3,
        legs={
            "skew": {"smart": 50.0, "fast": 70.0},
            "pressure": {"fast": 90.0},
        },
        baseline_ns={"skew": 100.0, "pressure": 95.0},
        traffic={"skew": {"smart": {"promotions": 2}}},
        sdam={"remaps": 1},
        ras={"retired": 2},
        problems=["pressure: a problem"],
        elapsed_seconds=2.25,
    ),
    RASReport: lambda: RASReport(
        seed=7,
        faults_injected=[{"access": 64, "spec": _spec().to_dict()}],
        detections=[{"detected": True, "repaired": True}],
        events=[("scrub", 1)],
        scrubs=2,
        dead_channels=[1],
        degraded=True,
        residual_slowdown=1.25,
    ),
    CampaignResult: lambda: CampaignResult(
        report=RASReport(seed=7, scrubs=1),
        problems=["lost a line"],
        resumed=True,
    ),
    RemapDecision: lambda: RemapDecision(
        remap=False,
        reason="cooldown",
        gain_ns_per_window=2.5,
        details={"window": 4},
    ),
    DeviceFaultSpec: _spec,
    CellError: lambda: CellError("copy", "bs_dm", "evaluate", "boom"),
    SpeedupTable: _table,
    SuiteResult: lambda: SuiteResult(
        table=_table(),
        errors=[CellError("copy", "bs_hm", "profile", "boom")],
        metrics={"evaluate": StageMetrics("evaluate", runs=2)},
        wall_seconds=3.5,
    ),
}


def _records(cls=Record):
    """Every record class the package defines, below ``cls``."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro.") and sub is not Ledger:
            yield sub
        yield from _records(sub)


def _ids(cls):
    return cls.__name__


def _marked(cls, marker):
    return [f for f in fields(cls) if f.metadata.get("record") == marker]


def _default(f):
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


def test_every_record_has_a_sample():
    assert set(_records()) == set(SAMPLES) | HAND_WRITTEN


@pytest.mark.parametrize("cls", list(SAMPLES), ids=_ids)
def test_serialisers_are_derived_not_hand_written(cls):
    for name in ("to_dict", "from_dict", "fingerprint", "to_json"):
        assert name not in vars(cls), f"{cls.__name__} defines {name}"


@pytest.mark.parametrize("cls", list(SAMPLES), ids=_ids)
def test_keys_are_the_declared_fields(cls):
    omitted = {f.name for f in _marked(cls, "omit")}
    declared = [f.name for f in fields(cls) if f.name not in omitted]
    assert list(SAMPLES[cls]().to_dict()) == declared + list(cls.derived)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=_ids)
def test_from_dict_round_trips(cls):
    data = SAMPLES[cls]().to_dict()
    assert cls.from_dict(data).to_dict() == data
    assert cls.from_dict(json.loads(json.dumps(data))).to_dict() == data


@pytest.mark.parametrize("cls", list(SAMPLES), ids=_ids)
def test_fingerprint_resets_only_provenance(cls):
    record = SAMPLES[cls]()
    data, fingerprint = record.to_dict(), record.fingerprint()
    for f in _marked(cls, "provenance"):
        assert data[f.name] != _default(f), f"sample leaves {f.name} default"
        assert fingerprint[f.name] == _default(f)
        data[f.name] = fingerprint[f.name]
    assert fingerprint == data


def test_nested_records_fingerprint_as_themselves():
    result = _machine_result("BS+DM", 100.0)
    result.profiling_seconds = 4.0
    table = SpeedupTable(baseline_label="BS+DM")
    table.add(result)
    assert table.fingerprint()["results"]["copy"]["BS+DM"] == (
        result.fingerprint()
    )
    assert table.to_dict()["results"]["copy"]["BS+DM"] == result.to_dict()
    assert result.to_dict() != result.fingerprint()


def test_to_dict_keeps_leaf_values():
    """Containers are copied, leaves are not converted."""
    leaf = np.int64(5)
    report = RASReport(events=[{"line": leaf}])
    data = report.to_dict()
    assert type(data["events"][0]["line"]) is np.int64
    assert data["events"][0] is not report.events[0]


def test_hand_written_record_keys_are_fields():
    keys = set(_machine_result("BS+DM", 1.0).to_dict())
    assert keys <= {f.name for f in fields(MachineResult)}


#: sha256 of ``json.dumps(to_dict(), sort_keys=True, default=str)`` with
#: ``elapsed_seconds`` zeroed and ``resumed`` set, as the hand-written
#: serialisers wrote them.
PINNED = {
    "ras": (
        lambda: run_campaign(seed=7, quick=True),
        "c373d2737b37f5055055604964d0f05305ab0ce83330a263e6914d5066cbddf3",
    ),
    "adapt": (
        lambda: run_adaptive_campaign(seed=0, quick=True),
        "dbbad0acd9f5976b737b7175a76037e5adcace5f5a957bf603763598129779ad",
    ),
    "tier": (
        lambda: run_tier_campaign(seed=0, quick=True),
        "15956ec8331217eeb76dbcb7376bcbf75858348907a1a632d326ce91e43f58d0",
    ),
    "ras_full": (
        lambda: run_campaign(seed=7, quick=False),
        "b9e19d9a0da7c5cf7172ac6ca921da4932d5d9ad577724efc65631e534e44721",
    ),
    "adapt_full": (
        lambda: run_adaptive_campaign(seed=0, quick=False),
        "bffb7d767c1e7654de248fc7b151f30971f8891c29c7c4c43a8176a2bd103716",
    ),
    "tier_full": (
        lambda: run_tier_campaign(seed=0, quick=False),
        "7298a61abe90fdadec08751a01c14d20ad9a12f9900d289f1127e610c5e239a0",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_campaign_report_content_is_pinned(name):
    run, expected = PINNED[name]
    result = run()
    names = {f.name for f in fields(result)}
    if "resumed" in names:
        result.resumed = True
    if "elapsed_seconds" in names:
        result.elapsed_seconds = 0.0
    data = result.to_dict()
    assert data.get("resumed", True) is True
    blob = json.dumps(data, sort_keys=True, default=str)
    assert hashlib.sha256(blob.encode()).hexdigest() == expected
