"""Input checks every timing tier shares.

A ``forced_miss`` mask must hold exactly one flag per request, and an
FR-FCFS window and an in-flight limit must each be a whole number of
requests, at least one.  Each tier rejects the rest up front with
:class:`~repro.errors.SimulationError` rather than broadcasting,
truncating, rounding or clamping; numpy integers are whole numbers.
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
    "fast": lambda window=8, inflight=64: WindowModel(
        CONFIG, max_inflight=inflight, reorder_window=window
    ),
    "vector": lambda window=8, inflight=64: VectorModel(
        CONFIG, max_inflight=inflight, frfcfs_window=window
    ),
    "event": lambda window=8, inflight=64: HBMDevice(
        CONFIG, max_inflight=inflight, frfcfs_window=window
    ),
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
@pytest.mark.parametrize("window", [0, -3])
def test_window_below_one_rejected(tier, window):
    with pytest.raises(SimulationError, match="window must be >= 1"):
        TIERS[tier](window)


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("inflight", [0, -3])
def test_inflight_below_one_rejected(tier, inflight):
    with pytest.raises(SimulationError, match="max_inflight must be >= 1"):
        TIERS[tier](inflight=inflight)


NOT_WHOLE = [8.0, 2.5, True, np.bool_(True), "8", None, np.float64(8.0)]


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("window", NOT_WHOLE, ids=repr)
def test_window_not_whole_rejected(tier, window):
    with pytest.raises(SimulationError, match="window must be an integer"):
        TIERS[tier](window=window)


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("inflight", NOT_WHOLE, ids=repr)
def test_inflight_not_whole_rejected(tier, inflight):
    with pytest.raises(SimulationError, match="max_inflight must be an integer"):
        TIERS[tier](inflight=inflight)


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_numpy_integer_knobs_accepted(tier):
    """A numpy integer knob runs exactly like the equal Python int."""
    model = TIERS[tier](window=np.int64(4), inflight=np.uint16(16))
    assert type(model.max_inflight) is int
    reference = TIERS[tier](window=4, inflight=16)
    trace = stride1()
    got = model.simulate_decoded(trace).to_dict()
    assert got == reference.simulate_decoded(trace).to_dict()
