"""Crash-safe adaptive-campaign checkpoints: kill, resume, same answer."""

import json

import pytest

from repro.errors import CampaignInterrupted, ConfigError
from repro.online.campaign import run_adaptive_campaign

SEED = 5


def _fingerprint(result) -> str:
    return json.dumps(result.fingerprint(), sort_keys=True, default=str)


class TestKillAndResume:
    def test_resumed_campaign_is_bit_identical(self, tmp_path):
        baseline = run_adaptive_campaign(seed=SEED, quick=True)
        path = tmp_path / "adapt.ckpt"
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_adaptive_campaign(
                seed=SEED,
                quick=True,
                checkpoint_path=str(path),
                checkpoint_every=5,
                stop_after=10,
            )
        assert excinfo.value.checkpoint_path == str(path)
        assert path.exists()
        resumed = run_adaptive_campaign(
            seed=SEED,
            quick=True,
            checkpoint_path=str(path),
            resume=True,
        )
        assert resumed.resumed
        assert _fingerprint(resumed) == _fingerprint(baseline)

    def test_resumed_flag_is_not_part_of_the_fingerprint(self, tmp_path):
        path = tmp_path / "adapt.ckpt"
        with pytest.raises(CampaignInterrupted):
            run_adaptive_campaign(
                seed=SEED,
                quick=True,
                checkpoint_path=str(path),
                stop_after=4,
            )
        resumed = run_adaptive_campaign(
            seed=SEED, quick=True, checkpoint_path=str(path), resume=True
        )
        assert resumed.to_dict()["resumed"] is True
        assert resumed.fingerprint()["resumed"] is False


class TestCheckpointValidation:
    def test_mismatched_parameters_are_rejected(self, tmp_path):
        path = tmp_path / "adapt.ckpt"
        with pytest.raises(CampaignInterrupted):
            run_adaptive_campaign(
                seed=SEED,
                quick=True,
                checkpoint_path=str(path),
                stop_after=4,
            )
        with pytest.raises(ConfigError, match="different parameters"):
            run_adaptive_campaign(
                seed=SEED + 1,
                quick=True,
                checkpoint_path=str(path),
                resume=True,
            )

    def test_wrong_campaign_type_is_rejected(self, tmp_path):
        from repro.errors import CampaignInterrupted as Stop
        from repro.ras.campaign import run_campaign

        path = tmp_path / "ras.ckpt"
        with pytest.raises(Stop):
            run_campaign(
                seed=3,
                kinds=("row",),
                quick=True,
                checkpoint_path=str(path),
                stop_after=1,
            )
        with pytest.raises(ConfigError, match="campaign"):
            run_adaptive_campaign(
                seed=SEED,
                quick=True,
                checkpoint_path=str(path),
                resume=True,
            )

    def test_stop_after_requires_a_checkpoint_path(self):
        with pytest.raises(ConfigError):
            run_adaptive_campaign(seed=SEED, quick=True, stop_after=4)
