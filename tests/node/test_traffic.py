"""Tests for traffic generation: bursts and duty-cycled schedules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.node.device import EndDevice
from repro.node.traffic import (
    burst_by_final_preamble,
    capacity_burst,
    duty_cycle_schedule,
)
from repro.phy.channels import ChannelGrid
from repro.phy.link import Position
from repro.phy.lora import DataRate

GRID = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
CHANNELS = GRID.channels()


def make_devices(count, dr_of=lambda i: DataRate(i % 6)):
    return [
        EndDevice(
            node_id=i + 1,
            network_id=1,
            position=Position(i * 10.0, 0.0),
            channel=CHANNELS[i % len(CHANNELS)],
            dr=dr_of(i),
        )
        for i in range(count)
    ]


class TestFinalPreambleBurst:
    def test_lock_ons_in_order(self):
        txs = burst_by_final_preamble(make_devices(12), slot_s=0.002)
        lock_ons = [t.lock_on_s for t in txs]
        assert lock_ons == sorted(lock_ons)
        for a, b in zip(lock_ons, lock_ons[1:]):
            assert b - a == pytest.approx(0.002)

    def test_no_negative_start(self):
        txs = burst_by_final_preamble(make_devices(12), start_s=0.0)
        assert all(t.start_s >= 0.0 for t in txs)

    def test_mixed_sf_lock_order_by_index(self):
        # Even the long SF12 preamble cannot break the ordering.
        devices = make_devices(6, dr_of=lambda i: DataRate(5 - i % 6))
        txs = burst_by_final_preamble(devices)
        node_by_lock = [t.node_id for t in sorted(txs, key=lambda t: t.lock_on_s)]
        assert node_by_lock == [1, 2, 3, 4, 5, 6]


class TestCapacityBurst:
    def test_true_concurrency(self):
        # Every packet must still be on air when the last one locks on.
        txs = capacity_burst(make_devices(30))
        last_lock = max(t.lock_on_s for t in txs)
        assert all(t.end_s > last_lock for t in txs)

    def test_empty_devices(self):
        assert capacity_burst([]) == []

    def test_payload_applied(self):
        devices = make_devices(4)
        capacity_burst(devices, payload_bytes=32)
        assert all(d.payload_bytes == 32 for d in devices)


class TestDutyCycle:
    def test_airtime_fraction_near_duty_cycle(self):
        devices = make_devices(20, dr_of=lambda i: DataRate.DR5)
        window = 2000.0
        txs = duty_cycle_schedule(devices, window, seed=1, duty_cycle=0.01)
        airtime = sum(t.airtime_s for t in txs)
        fraction = airtime / (window * len(devices))
        assert 0.005 < fraction < 0.02

    def test_sorted_by_start(self):
        txs = duty_cycle_schedule(make_devices(5), 500.0, seed=2)
        starts = [t.start_s for t in txs]
        assert starts == sorted(starts)

    def test_deterministic_per_seed(self):
        a = duty_cycle_schedule(make_devices(5), 300.0, seed=3)
        b = duty_cycle_schedule(make_devices(5), 300.0, seed=3)
        assert [(t.node_id, t.start_s) for t in a] == [
            (t.node_id, t.start_s) for t in b
        ]

    def test_different_seeds_differ(self):
        a = duty_cycle_schedule(make_devices(5), 300.0, seed=3)
        b = duty_cycle_schedule(make_devices(5), 300.0, seed=4)
        assert [t.start_s for t in a] != [t.start_s for t in b]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            duty_cycle_schedule(make_devices(2), 0.0)

    def test_all_transmissions_inside_window(self):
        txs = duty_cycle_schedule(make_devices(5), 100.0, seed=5)
        assert all(0.0 <= t.start_s < 100.0 for t in txs)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_zero_duty_cycle_no_traffic(self, seed):
        devices = make_devices(3)
        txs = duty_cycle_schedule(devices, 100.0, seed=seed, duty_cycle=0.0)
        assert txs == []
