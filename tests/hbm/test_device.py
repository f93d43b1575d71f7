"""Tests for the event-driven HBM device model and the per-object
parts of its former loop (``tests/hbm/event_oracle.py``)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hbm.config import hbm2_config
from repro.hbm.device import HBMDevice
from tests.hbm.event_oracle import Bank, Channel, ChannelRequest


def stride_trace(stride_lines: int, count: int = 2048) -> np.ndarray:
    pa = np.arange(count, dtype=np.uint64) * np.uint64(stride_lines * 64)
    return pa % np.uint64(8 * 1024**3)


class TestBank:
    def test_first_access_misses(self):
        bank = Bank()
        cost, hit = bank.probe(row=3, t_burst=10, t_row_miss=45)
        assert (cost, hit) == (45, False)

    def test_hit_after_commit(self):
        bank = Bank()
        bank.commit(row=3, done_ns=45, was_hit=False)
        cost, hit = bank.probe(row=3, t_burst=10, t_row_miss=45)
        assert (cost, hit) == (10, True)
        assert bank.misses == 1

    def test_would_hit(self):
        bank = Bank()
        assert not bank.would_hit(0)
        bank.commit(row=0, done_ns=45, was_hit=False)
        assert bank.would_hit(0)


class TestChannel:
    def make_channel(self) -> Channel:
        return Channel(banks_per_channel=8, t_burst_ns=10, t_row_miss_ns=45)

    def test_serial_bursts_on_bus(self):
        channel = self.make_channel()
        # Two hits to an open row: second completes one burst later.
        channel.banks[0].commit(row=0, done_ns=0, was_hit=False)
        channel.banks[0].misses = 0
        for index in range(2):
            channel.enqueue(ChannelRequest(index, bank=0, row=0, arrival_ns=0))
        _req, done1, hit1 = channel.service_next(0.0)
        _req, done2, hit2 = channel.service_next(0.0)
        assert hit1 and hit2
        assert done2 == done1 + 10

    def test_activations_overlap_across_banks(self):
        channel = self.make_channel()
        for index in range(2):
            channel.enqueue(ChannelRequest(index, bank=index, row=0, arrival_ns=0))
        _req, done1, _ = channel.service_next(0.0)
        _req, done2, _ = channel.service_next(0.0)
        assert done1 == 45
        assert done2 == 55  # second ACT overlapped; bus adds one burst

    def test_frfcfs_prefers_open_row(self):
        channel = self.make_channel()
        channel.banks[1].commit(row=7, done_ns=0, was_hit=False)
        channel.banks[1].misses = 0
        channel.enqueue(ChannelRequest(0, bank=0, row=3, arrival_ns=0))
        channel.enqueue(ChannelRequest(1, bank=1, row=7, arrival_ns=0))
        request, _done, hit = channel.service_next(0.0)
        assert request.index == 1 and hit

    def test_next_start_estimate_empty(self):
        assert self.make_channel().next_start_estimate() == float("inf")


class TestHBMDevice:
    def setup_method(self):
        self.cfg = hbm2_config()
        self.device = HBMDevice(self.cfg)

    def test_empty_trace(self):
        stats = self.device.simulate(np.zeros(0, dtype=np.uint64))
        assert stats.requests == 0

    def test_single_request(self):
        stats = self.device.simulate(np.array([0], dtype=np.uint64))
        assert stats.requests == 1
        assert stats.row_misses == 1
        assert stats.makespan_ns == pytest.approx(45.0)

    def test_stride_collapse(self):
        t1 = self.device.simulate(stride_trace(1)).throughput_gbps
        t32 = self.device.simulate(stride_trace(32)).throughput_gbps
        assert t1 / t32 > 10

    def test_all_requests_served(self):
        stats = self.device.simulate(stride_trace(4, 999))
        assert stats.requests == 999
        assert stats.per_channel_requests.sum() == 999
        assert stats.row_hits + stats.row_misses == 999

    def test_window_limits_overlap(self):
        wide = HBMDevice(self.cfg, max_inflight=256)
        narrow = HBMDevice(self.cfg, max_inflight=1)
        trace = stride_trace(1, 512)
        assert (
            narrow.simulate(trace).makespan_ns
            > wide.simulate(trace).makespan_ns
        )

    def test_inflight_one_serialises_everything(self):
        device = HBMDevice(self.cfg, max_inflight=1)
        trace = stride_trace(1, 64)
        stats = device.simulate(trace)
        # Every access waits for the previous one: makespan is the sum
        # of individual service times.
        expected = stats.row_misses * 45 + stats.row_hits * 10
        assert stats.makespan_ns == pytest.approx(expected)

    def test_invalid_window(self):
        with pytest.raises(SimulationError):
            HBMDevice(self.cfg, max_inflight=0)
