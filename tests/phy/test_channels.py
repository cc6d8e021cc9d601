"""Tests for channels, grids, and standard channel plans."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.phy.channels import (
    Channel,
    ChannelGrid,
    ChannelPlan,
    overlap_hz,
    overlap_ratio,
    spectrum_span_hz,
    standard_plans,
)


def ch(center_mhz, bw_khz=125.0):
    return Channel(center_mhz * 1e6, bw_khz * 1e3)


class TestChannel:
    def test_edges(self):
        c = ch(923.1)
        assert c.low_hz == pytest.approx(923.1e6 - 62_500)
        assert c.high_hz == pytest.approx(923.1e6 + 62_500)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Channel(-1.0, 125e3)
        with pytest.raises(ValueError):
            Channel(923e6, 0.0)

    def test_shifted(self):
        assert ch(923.1).shifted(50e3).center_hz == pytest.approx(923.15e6)

    def test_ordering_by_frequency(self):
        assert ch(923.1) < ch(923.3)


class TestEdgeCache:
    """``low_hz`` and ``high_hz`` are computed once, at construction,
    and are not dataclass fields."""

    @pytest.mark.parametrize("bw_khz", [125.0, 250.0, 500.0, 62.5])
    @pytest.mark.parametrize("center_mhz", [923.1, 923.15, 868.1, 902.3 + 1e-7])
    def test_match_the_centre_and_bandwidth(self, center_mhz, bw_khz):
        c = ch(center_mhz, bw_khz)
        assert c.low_hz == c.center_hz - c.bandwidth_hz / 2.0
        assert c.high_hz == c.center_hz + c.bandwidth_hz / 2.0

    def test_replace_recomputes(self):
        c = ch(923.1)
        moved = dataclasses.replace(c, center_hz=923.3e6)
        assert (moved.low_hz, moved.high_hz) == (923.3e6 - 62_500, 923.3e6 + 62_500)
        wider = dataclasses.replace(c, bandwidth_hz=500e3)
        assert (wider.low_hz, wider.high_hz) == (923.1e6 - 250e3, 923.1e6 + 250e3)
        assert c.shifted(50e3).low_hz == c.low_hz + 50e3

    def test_not_dataclass_fields(self):
        assert [f.name for f in dataclasses.fields(Channel)] == [
            "center_hz",
            "bandwidth_hz",
        ]
        assert dataclasses.asdict(ch(923.1)) == {
            "center_hz": 923.1e6,
            "bandwidth_hz": 125e3,
        }

    def test_eq_hash_order_repr_see_only_fields(self):
        a, b = Channel(923.1e6), Channel(923.1e6)
        assert a == b and hash(a) == hash(b)
        assert a != Channel(923.1e6, 250e3)
        assert len({a, b, Channel(923.3e6)}) == 2
        assert sorted([ch(923.3), ch(923.1, 500), ch(923.1)]) == [
            ch(923.1),
            ch(923.1, 500),
            ch(923.3),
        ]
        assert repr(a) == "Channel(center_hz=923100000.0, bandwidth_hz=125000)"

    def test_pickle_round_trip(self):
        c = ch(923.15, 250)
        back = pickle.loads(pickle.dumps(c))
        assert back == c and hash(back) == hash(c)
        assert (back.low_hz, back.high_hz) == (c.low_hz, c.high_hz)

    def test_frozen(self):
        c = ch(923.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.low_hz = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.center_hz = 1.0


class TestOverlap:
    def test_identical_channels(self):
        assert overlap_ratio(ch(923.1), ch(923.1)) == pytest.approx(1.0)

    def test_disjoint_channels(self):
        assert overlap_ratio(ch(923.1), ch(923.4)) == 0.0

    def test_half_overlap(self):
        a, b = ch(923.1), ch(923.1).shifted(62_500)
        assert overlap_ratio(a, b) == pytest.approx(0.5)

    def test_overlap_hz_matches_ratio(self):
        a, b = ch(923.1), ch(923.1).shifted(25e3)
        assert overlap_hz(a, b) == pytest.approx(100e3)
        assert overlap_ratio(a, b) == pytest.approx(0.8)

    @given(shift=st.floats(min_value=-400e3, max_value=400e3))
    def test_symmetry(self, shift):
        a = ch(923.1)
        b = a.shifted(shift)
        assert overlap_ratio(a, b) == pytest.approx(overlap_ratio(b, a))

    @given(shift=st.floats(min_value=-400e3, max_value=400e3))
    def test_bounded(self, shift):
        r = overlap_ratio(ch(923.1), ch(923.1).shifted(shift))
        assert 0.0 <= r <= 1.0

    @given(
        s1=st.floats(min_value=0, max_value=200e3),
        s2=st.floats(min_value=0, max_value=200e3),
    )
    def test_monotone_in_offset(self, s1, s2):
        a = ch(923.1)
        lo, hi = sorted([s1, s2])
        assert overlap_ratio(a, a.shifted(hi)) <= overlap_ratio(
            a, a.shifted(lo)
        ) + 1e-12


class TestChannelGrid:
    def test_testbed_grid_has_8_channels(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        assert grid.num_channels == 8

    def test_channel_centers_on_raster(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        assert grid.channel(0).center_hz == pytest.approx(923.1e6)
        assert grid.channel(7).center_hz == pytest.approx(924.5e6)

    def test_index_out_of_range(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        with pytest.raises(IndexError):
            grid.channel(8)

    def test_too_narrow_grid_rejected(self):
        with pytest.raises(ValueError):
            ChannelGrid(start_hz=923.0e6, width_hz=100e3)

    @given(index=st.integers(min_value=0, max_value=7))
    def test_index_roundtrip(self, index):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        assert grid.index_of(grid.channel(index)) == index

    def test_index_of_offgrid_channel_raises(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        with pytest.raises(ValueError):
            grid.index_of(Channel(923.15e6))

    def test_shifted_grid_channels_shift(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        shifted = grid.shifted(75e3)
        assert shifted.channel(0).center_hz == pytest.approx(923.175e6)

    def test_subgrid(self):
        grid = ChannelGrid(start_hz=916.8e6, width_hz=4.8e6)
        sub = grid.subgrid(8)
        assert sub.num_channels == 8
        assert sub.channel(0) == grid.channel(0)

    def test_subgrid_with_offset(self):
        grid = ChannelGrid(start_hz=916.8e6, width_hz=4.8e6)
        sub = grid.subgrid(8, start_index=8)
        assert sub.channel(0) == grid.channel(8)

    def test_subgrid_overflow(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        with pytest.raises(ValueError):
            grid.subgrid(9)


class TestChannelPlan:
    def test_channels_sorted(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        plan = ChannelPlan("p", (grid.channel(3), grid.channel(1)))
        assert plan.channels[0] < plan.channels[1]

    def test_span(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        plan = ChannelPlan.from_grid(grid, range(8))
        assert plan.span_hz == pytest.approx(7 * 200e3 + 125e3)

    def test_span_of_mixed_bandwidths(self):
        # The 500 kHz channel is second by centre but has the lowest edge.
        plan = ChannelPlan("mixed", (ch(922.0), ch(922.05, 500), ch(923.47)))
        assert plan.span_hz == pytest.approx(1.7325e6)
        assert plan.span_hz == spectrum_span_hz(plan.channels)
        assert ChannelPlan("empty").span_hz == 0.0

    def test_best_match(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        plan = ChannelPlan.from_grid(grid, range(8))
        target = grid.channel(2).shifted(20e3)
        best, ratio = plan.best_match(target)
        assert best == grid.channel(2)
        assert ratio == pytest.approx(1 - 20e3 / 125e3)

    def test_best_match_empty_plan(self):
        with pytest.raises(ValueError):
            ChannelPlan("empty").best_match(Channel(923.1e6))

    def test_contains(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
        plan = ChannelPlan.from_grid(grid, [0, 1])
        assert grid.channel(0) in plan
        assert grid.channel(5) not in plan


class TestStandardPlans:
    def test_24_channels_give_3_plans(self):
        grid = ChannelGrid(start_hz=916.8e6, width_hz=4.8e6)
        plans = standard_plans(grid)
        assert len(plans) == 3
        assert all(len(p) == 8 for p in plans)

    def test_plans_are_disjoint_and_cover(self):
        grid = ChannelGrid(start_hz=916.8e6, width_hz=4.8e6)
        plans = standard_plans(grid)
        seen = [c for p in plans for c in p.channels]
        assert len(seen) == len(set(seen)) == 24

    def test_narrow_grid_single_short_plan(self):
        grid = ChannelGrid(start_hz=923.0e6, width_hz=0.8e6)
        plans = standard_plans(grid)
        assert len(plans) == 1
        assert len(plans[0]) == 4
