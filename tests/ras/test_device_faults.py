"""Tests for device fault specs and fault plans."""

import pytest

from repro.errors import DeviceFaultError, RASError
from repro.ras.faults import (
    DEVICE_AMU_MISPROGRAM,
    DEVICE_CMT_FLIP,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_HBM_ROW,
    DEVICE_SITES,
    DeviceFaultPlan,
    DeviceFaultSpec,
)
from repro.ras.campaign import run_campaign


class TestSiteRegistry:
    def test_device_family_registered(self):
        assert DEVICE_HBM_ROW in DEVICE_SITES
        assert DEVICE_CMT_FLIP in DEVICE_SITES
        assert all(site.startswith("device.") for site in DEVICE_SITES)


class TestSpecValidation:
    def test_unknown_site_fails_fast(self):
        with pytest.raises(DeviceFaultError, match="unknown device fault"):
            DeviceFaultSpec(site="device.hbm.rank", channel=0)

    def test_missing_coordinates_rejected(self):
        with pytest.raises(DeviceFaultError, match="'row'"):
            DeviceFaultSpec(site=DEVICE_HBM_ROW, channel=0, bank=0)
        with pytest.raises(DeviceFaultError, match="'channel'"):
            DeviceFaultSpec(site=DEVICE_HBM_CHANNEL)
        with pytest.raises(DeviceFaultError, match="mapping_index"):
            DeviceFaultSpec(site=DEVICE_AMU_MISPROGRAM)

    def test_cmt_flip_needs_a_target_word(self):
        with pytest.raises(DeviceFaultError, match="chunk_no"):
            DeviceFaultSpec(site=DEVICE_CMT_FLIP)
        DeviceFaultSpec(site=DEVICE_CMT_FLIP, chunk_no=3, bit=2)
        DeviceFaultSpec(site=DEVICE_CMT_FLIP, mapping_index=1, lane=4, bit=1)

    def test_negative_trigger_rejected(self):
        with pytest.raises(DeviceFaultError, match="trigger_access"):
            DeviceFaultSpec(
                site=DEVICE_HBM_CHANNEL, channel=0, trigger_access=-1
            )

    def test_kind_and_physical_classifiers(self):
        row = DeviceFaultSpec(site=DEVICE_HBM_ROW, channel=0, bank=1, row=2)
        cmt = DeviceFaultSpec(site=DEVICE_CMT_FLIP, chunk_no=0)
        assert row.kind == "row" and row.is_physical
        assert cmt.kind == "cmt" and not cmt.is_physical

    def test_dict_round_trip(self):
        spec = DeviceFaultSpec(
            site=DEVICE_HBM_BANK, trigger_access=500, channel=3, bank=1
        )
        assert DeviceFaultSpec.from_dict(spec.to_dict()) == spec


class TestPlan:
    def specs(self):
        return [
            DeviceFaultSpec(
                site=DEVICE_HBM_CHANNEL, channel=1, trigger_access=100
            ),
            DeviceFaultSpec(
                site=DEVICE_CMT_FLIP, chunk_no=0, trigger_access=300
            ),
        ]

    def test_pop_due_fires_each_spec_once(self):
        plan = DeviceFaultPlan(self.specs())
        assert plan.pop_due(50) == []
        assert len(plan.pop_due(100)) == 1
        assert plan.pop_due(200) == []
        assert len(plan.pop_due(1000)) == 1
        assert plan.pending == 0

    def test_campaign_unknown_kind_rejected(self):
        with pytest.raises(RASError, match="unknown fault kind"):
            run_campaign(seed=0, kinds=("rank",), quick=True)
