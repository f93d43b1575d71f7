"""Input checks every timing tier shares.

A ``forced_miss`` mask must hold exactly one flag per request, and an
FR-FCFS window must be at least one request wide.  Each tier rejects
the rest up front with :class:`~repro.errors.SimulationError` rather
than broadcasting, truncating or clamping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hbm.config import hbm2_config
from repro.hbm.decode import decode_trace
from repro.hbm.device import HBMDevice
from repro.hbm.fastmodel import WindowModel
from repro.hbm.vectormodel import VectorModel

CONFIG = hbm2_config()

TIERS = {
    "fast": lambda window=8: WindowModel(CONFIG, reorder_window=window),
    "vector": lambda window=8: VectorModel(CONFIG, frfcfs_window=window),
    "event": lambda window=8: HBMDevice(CONFIG, frfcfs_window=window),
}


def stride1(count: int = 1000):
    ha = np.arange(count, dtype=np.uint64) * np.uint64(CONFIG.line_bytes)
    return decode_trace(ha, CONFIG)


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("length", [0, 1, 999, 1001])
def test_forced_miss_of_wrong_length_rejected(tier, length):
    with pytest.raises(SimulationError, match="forced_miss"):
        TIERS[tier]().simulate_decoded(
            stride1(), forced_miss=np.ones(length, dtype=bool)
        )


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_forced_miss_of_right_length_accepted(tier):
    trace = stride1()
    stats = TIERS[tier]().simulate_decoded(
        trace, forced_miss=np.ones(len(trace), dtype=bool)
    )
    assert stats.row_hits == 0


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_forced_miss_with_chunks_rejected(tier):
    with pytest.raises(SimulationError, match="whole DecodedTrace"):
        TIERS[tier]().simulate_decoded(
            iter([stride1()]), forced_miss=np.zeros(1000, dtype=bool)
        )


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("window", [0, -3])
def test_window_below_one_rejected(tier, window):
    with pytest.raises(SimulationError, match="window must be >= 1"):
        TIERS[tier](window)
