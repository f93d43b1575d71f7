"""The tiered-memory campaign: gates, invariants, side legs."""

import pytest

from repro.errors import ConfigError
from repro.tier.campaign import run_tier_campaign


@pytest.fixture(scope="module")
def quick_result():
    return run_tier_campaign(seed=0, quick=True)


class TestCampaign:
    def test_quick_campaign_is_clean(self, quick_result):
        assert quick_result.problems == []
        assert quick_result.ok

    def test_smart_strictly_beats_all_slow(self, quick_result):
        for leg in ("skew", "pressure"):
            assert (
                quick_result.legs[leg]["smart"]
                < quick_result.baseline_ns[leg]
            )
            assert quick_result.speedup(leg) > 1.0

    def test_all_policies_evaluated(self, quick_result):
        for leg in ("skew", "pressure"):
            assert set(quick_result.legs[leg]) == {"fast", "slow", "smart"}
            assert "all-slow" in quick_result.traffic[leg]

    def test_smart_promotes_on_skew_not_on_pressure(self, quick_result):
        assert quick_result.traffic["skew"]["smart"]["promotions"] > 0
        assert quick_result.traffic["pressure"]["smart"]["promotions"] == 0

    def test_sdam_leg_rolled_back_then_remapped(self, quick_result):
        assert quick_result.sdam["rollback_ok"]
        assert quick_result.sdam["rollbacks"] == 1
        assert quick_result.sdam["remaps"] == 1
        assert quick_result.sdam["lines_copied"] > 0

    def test_ras_leg_pins_without_shrinking_fast(self, quick_result):
        assert quick_result.ras["retired"] == 4
        assert quick_result.ras["capacity_ok"]
        assert quick_result.ras["never_promoted"]

    def test_fingerprint_deterministic(self, quick_result):
        again = run_tier_campaign(seed=0, quick=True)
        assert again.fingerprint() == quick_result.fingerprint()

    def test_single_policy_restriction(self):
        result = run_tier_campaign(seed=0, quick=True, policy="slow")
        assert result.policies == ["slow"]
        for leg in result.legs.values():
            assert set(leg) == {"slow"}
        # No smart run -> no speed gate; invariants still checked.
        assert result.ok

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown swap policy"):
            run_tier_campaign(policy="telepathic")

