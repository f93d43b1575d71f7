"""``AutoencoderConfig`` rejects sizes that would only fail mid-training."""

import pytest

from repro.errors import TrainingError
from repro.ml.dlkmeans import AutoencoderConfig, paper_hyperparameters


@pytest.mark.parametrize(
    "field, value",
    [
        ("centroid_refresh", 0),
        ("centroid_refresh", -1),
        ("batch_size", 0),
        ("sequence_length", 0),
        ("joint_steps", -3),
        ("pretrain_steps", -1),
    ],
)
def test_bad_size_rejected_at_construction(field, value):
    with pytest.raises(TrainingError, match=field):
        AutoencoderConfig(**{field: value})


@pytest.mark.parametrize("field", ["pretrain_steps", "joint_steps"])
def test_zero_steps_allowed(field):
    assert getattr(AutoencoderConfig(**{field: 0}), field) == 0


def test_shipped_configs_valid():
    AutoencoderConfig()
    paper_hyperparameters()
    AutoencoderConfig(sequence_length=1, batch_size=1, centroid_refresh=1)
