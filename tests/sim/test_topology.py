"""Tests for placement and the cached link budget."""

import pytest

from repro.phy.link import LogDistancePathLoss, Position
from repro.sim.topology import (
    AREA_HEIGHT_M,
    AREA_WIDTH_M,
    LinkBudget,
    grid_positions,
    uniform_positions,
)


class TestPlacement:
    def test_grid_count(self):
        assert len(grid_positions(15)) == 15

    def test_grid_inside_area(self):
        for p in grid_positions(15):
            assert 0 <= p.x <= AREA_WIDTH_M
            assert 0 <= p.y <= AREA_HEIGHT_M

    def test_single_gateway_centered(self):
        (p,) = grid_positions(1, 1000.0, 800.0)
        assert p.x == pytest.approx(500.0)
        assert p.y == pytest.approx(400.0)

    def test_grid_rejects_zero(self):
        with pytest.raises(ValueError):
            grid_positions(0)

    def test_grid_positions_distinct(self):
        pts = grid_positions(12)
        assert len({(p.x, p.y) for p in pts}) == 12

    def test_uniform_deterministic(self):
        a = uniform_positions(20, seed=5)
        b = uniform_positions(20, seed=5)
        assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]

    def test_uniform_inside_area(self):
        for p in uniform_positions(50, seed=1, width_m=300, height_m=200):
            assert 0 <= p.x <= 300
            assert 0 <= p.y <= 200


class TestLinkBudget:
    @pytest.mark.parametrize(
        "a, b",
        [
            (Position(-0.0, 5.0), Position(0.0, 5.0)),
            (Position(0.0, -0.0), Position(-0.0, 0.0)),
        ],
    )
    def test_equal_positions_draw_bit_equal_losses(self, a, b):
        # The cache returns whichever of two equal positions drew first,
        # so both must draw the same loss, in either call order.
        assert a == b
        far = Position(100.0, 0.0)
        for first, second in ((a, b), (b, a)):
            budget = LinkBudget()
            drawn = budget.path_loss_db(first, far)
            assert budget.path_loss_db(second, far).hex() == drawn.hex()
            assert LinkBudget().path_loss_db(second, far).hex() == drawn.hex()

    def test_cache_consistency(self):
        budget = LinkBudget()
        a, b = Position(0, 0), Position(400, 300)
        first = budget.path_loss_db(a, b)
        assert budget.path_loss_db(a, b) == first
        assert budget.path_loss_db(b, a) == first  # symmetric key

    def test_rssi_includes_gain(self):
        budget = LinkBudget(path_loss=LogDistancePathLoss(sigma_db=0))
        a, b = Position(0, 0), Position(400, 300)
        base = budget.rssi_dbm(14.0, a, b)
        assert budget.rssi_dbm(14.0, a, b, antenna_gain_db=12.0) == (
            pytest.approx(base + 12.0)
        )

    def test_snr_power_relationship(self):
        budget = LinkBudget(path_loss=LogDistancePathLoss(sigma_db=0))
        a, b = Position(0, 0), Position(400, 300)
        assert budget.snr_db(14.0, a, b) == pytest.approx(
            budget.snr_db(8.0, a, b) + 6.0
        )
