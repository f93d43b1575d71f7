"""An empty request stream through every fidelity tier.

Short programs whose accesses all hit in cache leave an empty decoded
trace, and every tier must return all-zero stats for it rather than
crash.
"""

import numpy as np
import pytest

from repro.hbm import create_backend, hbm2_config
from repro.hbm.decode import DecodedTrace

CONFIG = hbm2_config()
TIERS = ("fast", "vector", "event")


def _empty_trace() -> DecodedTrace:
    zeros = np.zeros(0, dtype=np.int64)
    return DecodedTrace(
        channel=zeros, bank=zeros, row=zeros, column=zeros, global_bank=zeros
    )


@pytest.mark.parametrize("tier", TIERS)
class TestDegenerateStreams:
    def test_empty_whole_trace(self, tier):
        stats = create_backend(tier, CONFIG).simulate_decoded(_empty_trace())
        assert stats.requests == 0
        assert stats.bytes_moved == 0
        assert stats.makespan_ns == 0.0
        assert stats.row_hits == 0 and stats.row_misses == 0
