"""Golden fingerprint digests of the three campaigns at fixed seeds.

Each digest is ``sha256(json.dumps(result.fingerprint(), sort_keys=True,
default=str))``.  A change to how campaigns are started, checkpointed or
reported must leave every digest as it is; only a change to what a
campaign simulates may move one, and then it says so.
"""

import hashlib
import json

import pytest

from repro.online.campaign import run_adaptive_campaign
from repro.ras.campaign import run_campaign
from repro.tier.campaign import run_tier_campaign

GOLDEN = {
    "ras": (
        lambda: run_campaign(seed=7, quick=True),
        "709c67bcdba13609a14f569730e45f6f847a69e3ce84f5884da9a75b2e534d8d",
    ),
    "adapt": (
        lambda: run_adaptive_campaign(seed=0, quick=True),
        "1403341c1771982eae1e90564ec1e832865879d14821ad7090b7024849d9ad78",
    ),
    "tier": (
        lambda: run_tier_campaign(seed=0, quick=True),
        "15956ec8331217eeb76dbcb7376bcbf75858348907a1a632d326ce91e43f58d0",
    ),
}


def fingerprint_digest(result) -> str:
    blob = json.dumps(result.fingerprint(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_campaign_fingerprint_is_pinned(name):
    run, expected = GOLDEN[name]
    assert fingerprint_digest(run()) == expected
