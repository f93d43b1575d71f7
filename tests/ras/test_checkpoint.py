"""Crash-safe RAS campaign checkpoints: kill, resume, same answer."""

import json
import pickle

import pytest

from repro.errors import CampaignInterrupted, ConfigError
from repro.ras.campaign import run_campaign
from repro.system.checkpoint import CHECKPOINT_VERSION

KINDS = ("row", "cmt")


def _fingerprint(result) -> str:
    return json.dumps(result.fingerprint(), sort_keys=True, default=str)


class TestKillAndResume:
    def test_resumed_campaign_is_bit_identical(self, tmp_path):
        baseline = run_campaign(seed=3, kinds=KINDS, quick=True)
        path = tmp_path / "ras.ckpt"
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(
                seed=3,
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(path),
                stop_after=2,
            )
        assert excinfo.value.checkpoint_path == str(path)
        assert path.exists()
        resumed = run_campaign(
            seed=3,
            kinds=KINDS,
            quick=True,
            checkpoint_path=str(path),
            resume=True,
        )
        assert resumed.resumed
        assert _fingerprint(resumed) == _fingerprint(baseline)

    def test_resumed_flag_is_not_part_of_the_fingerprint(self, tmp_path):
        path = tmp_path / "ras.ckpt"
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                seed=3,
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(path),
                stop_after=1,
            )
        resumed = run_campaign(
            seed=3,
            kinds=KINDS,
            quick=True,
            checkpoint_path=str(path),
            resume=True,
        )
        assert resumed.to_dict()["resumed"] is True
        assert resumed.fingerprint()["resumed"] is False


class TestCheckpointValidation:
    def test_mismatched_parameters_are_rejected(self, tmp_path):
        path = tmp_path / "ras.ckpt"
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                seed=3,
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(path),
                stop_after=1,
            )
        with pytest.raises(ConfigError, match="different parameters"):
            run_campaign(
                seed=4,  # different campaign key
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(path),
                resume=True,
            )

    def test_other_checkpoint_version_is_refused(self, tmp_path):
        # The pickled state's shape belongs to one CHECKPOINT_VERSION: a
        # checkpoint from another layout must never be resumed into it.
        path = tmp_path / "ras.ckpt"
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                seed=3,
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(path),
                stop_after=1,
            )
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CHECKPOINT_VERSION - 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigError, match="has version"):
            run_campaign(
                seed=3,
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(path),
                resume=True,
            )

    def test_resume_without_checkpoint_file_fails(self, tmp_path):
        with pytest.raises(ConfigError):
            run_campaign(
                seed=3,
                kinds=KINDS,
                quick=True,
                checkpoint_path=str(tmp_path / "missing.ckpt"),
                resume=True,
            )

    def test_stop_after_requires_a_checkpoint_path(self):
        from repro.errors import RASError

        with pytest.raises(RASError):
            run_campaign(seed=3, kinds=KINDS, quick=True, stop_after=1)
