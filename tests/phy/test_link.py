"""Tests for the link budget: path loss, sensitivity, tiers, antennas."""

import dataclasses
import hashlib
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.phy.link import (
    DEFAULT_TIERS,
    DirectionalAntenna,
    DistanceTier,
    LogDistancePathLoss,
    Position,
    max_range_m,
    noise_floor_dbm,
    sensitivity_dbm,
    snr_db,
    tier_for_distance,
)
from repro.phy.lora import DataRate, SpreadingFactor


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5)

    def test_bearing_east(self):
        assert Position(0, 0).bearing_to(Position(10, 0)) == pytest.approx(0.0)

    def test_bearing_north(self):
        assert Position(0, 0).bearing_to(Position(0, 10)) == pytest.approx(90.0)

    @given(
        x=st.floats(-1000, 1000), y=st.floats(-1000, 1000)
    )
    def test_bearing_in_range(self, x, y):
        b = Position(0, 0).bearing_to(Position(x, y))
        assert 0.0 <= b < 360.0

    def test_draw_text_is_not_a_field(self):
        a = Position(12.3455, -0.0)
        assert a.draw_text == f"{12.3455:.3f},{0.0:.3f}"
        assert a == Position(12.3455, 0.0) and hash(a) == hash(Position(12.3455, 0))
        assert repr(a) == "Position(x=12.3455, y=-0.0)"
        assert dataclasses.asdict(a) == {"x": 12.3455, "y": -0.0}
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back.draw_text == a.draw_text
        moved = dataclasses.replace(a, y=2.5)
        assert moved.draw_text == f"{12.3455:.3f},{2.5:.3f}"
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.draw_text = ""


class TestNoise:
    def test_floor_125khz(self):
        # -174 + 10log10(125e3) + 6 = -117.03 dBm.
        assert noise_floor_dbm(125_000) == pytest.approx(-117.03, abs=0.01)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            noise_floor_dbm(0)

    def test_snr_definition(self):
        assert snr_db(-100.0) == pytest.approx(17.03, abs=0.01)


class TestSensitivity:
    def test_sf12_below_noise_floor(self):
        # LoRa decodes below the noise floor — the property that defeats
        # directional antennas in the paper's Strategy 6 study.
        assert sensitivity_dbm(SpreadingFactor.SF12) < noise_floor_dbm(125_000)

    def test_monotonic_in_sf(self):
        values = [sensitivity_dbm(sf) for sf in SpreadingFactor]
        assert values == sorted(values, reverse=True)


class TestLogDistance:
    def test_deterministic_per_link(self):
        model = LogDistancePathLoss(seed=3)
        a, b = Position(0, 0), Position(500, 100)
        assert model.path_loss_db(a, b) == model.path_loss_db(a, b)

    def test_symmetric(self):
        model = LogDistancePathLoss(seed=3)
        a, b = Position(0, 0), Position(500, 100)
        assert model.path_loss_db(a, b) == model.path_loss_db(b, a)

    def test_mean_increases_with_distance(self):
        model = LogDistancePathLoss(sigma_db=0.0)
        a = Position(0, 0)
        assert model.path_loss_db(a, Position(1000, 0)) > model.path_loss_db(
            a, Position(200, 0)
        )

    def test_calibration_snr_range(self):
        # Paper's testbed: SNRs spanning roughly -15..+5 dB at 0.3-1 km
        # with a 14 dBm transmitter.
        model = LogDistancePathLoss(sigma_db=0.0)
        a = Position(0, 0)
        for d, lo, hi in ((300, 0, 10), (1000, -16, -10)):
            rssi = model.rssi_dbm(14.0, a, Position(d, 0))
            s = snr_db(rssi)
            assert lo <= s <= hi, f"SNR {s:.1f} at {d} m outside [{lo}, {hi}]"

    def test_different_seeds_differ(self):
        a, b = Position(0, 0), Position(500, 100)
        p1 = LogDistancePathLoss(seed=1).path_loss_db(a, b)
        p2 = LogDistancePathLoss(seed=2).path_loss_db(a, b)
        assert p1 != p2

    def test_shadowing_disabled(self):
        model = LogDistancePathLoss(sigma_db=0.0, seed=1)
        other = LogDistancePathLoss(sigma_db=0.0, seed=2)
        a, b = Position(0, 0), Position(500, 100)
        assert model.path_loss_db(a, b) == other.path_loss_db(a, b)


def _reference_pair_hash(a, b, seed):
    """The per-draw expression the shadowing draws must equal bit for bit."""
    p, q = sorted([(a.x + 0.0, a.y + 0.0), (b.x + 0.0, b.y + 0.0)])
    digest = hashlib.sha256(
        f"{seed}:{p[0]:.3f},{p[1]:.3f}|{q[0]:.3f},{q[1]:.3f}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _reference_path_loss_db(model, a, b):
    d = max(a.distance_to(b), 1.0)
    mean = model.pl0_db + 10.0 * model.exponent * math.log10(d / model.d0_m)
    u1 = max(_reference_pair_hash(a, b, model.seed), 1e-12)
    u2 = _reference_pair_hash(a, b, model.seed + 1)
    gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + model.sigma_db * gauss


def _coordinate(rng):
    kind = rng.randrange(5)
    if kind == 0:  # on a .3f rounding boundary, as 12.3455 is
        return rng.randrange(-3_000_000, 3_000_000) / 1000.0 + 0.0005
    if kind == 1:  # whole metres, negative or not
        return float(rng.randrange(-2000, 2000))
    if kind == 2:
        return rng.choice([0.0, -0.0, 12.3455, -12.3455, 0.0005, -0.0005])
    return rng.uniform(-3000.0, 3000.0)


def _link_pairs(count, seed=11):
    rng = random.Random(seed)
    pairs = [
        (Position(12.3455, 0.0), Position(12.3455, 0.0)),  # identical
        (Position(-0.0, 5.0), Position(0.0, 5.0)),  # equal, signed zero
        (Position(0.0, -0.0), Position(-0.0, 0.0)),
        (Position(12.3455, 1.0), Position(12.3455, -1.0)),  # equal x
        (Position(-12.3455, -7.0), Position(-12.3445, -7.0)),
    ]
    while len(pairs) < count:
        a = Position(_coordinate(rng), _coordinate(rng))
        kind = rng.randrange(4)
        if kind == 0:
            b = Position(a.x, _coordinate(rng))  # equal x, y differs
        elif kind == 1:
            b = Position(a.x, a.y)  # identical point
        else:
            b = Position(_coordinate(rng), _coordinate(rng))
        pairs.append((a, b))
    return pairs


class TestLinkDraws:
    """The shadowing draws equal the per-draw reference bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_the_reference(self, seed):
        model = LogDistancePathLoss(sigma_db=2.0, seed=seed)
        for a, b in _link_pairs(10_000):
            for p, q in ((a, b), (b, a)):
                got = model.path_loss_db(p, q)
                assert got.hex() == _reference_path_loss_db(model, p, q).hex(), (
                    p,
                    q,
                )


class TestMaxRange:
    def test_dr5_range_calibrated(self):
        model = LogDistancePathLoss(sigma_db=0.0)
        r = max_range_m(model, 8.0, SpreadingFactor.SF7)
        assert 350 < r < 550  # ~450 m by calibration

    def test_higher_sf_reaches_farther(self):
        model = LogDistancePathLoss(sigma_db=0.0)
        ranges = [
            max_range_m(model, 14.0, sf) for sf in SpreadingFactor
        ]
        assert ranges == sorted(ranges)


class TestTiers:
    def test_six_tiers_cover_all_drs(self):
        assert {t.dr for t in DEFAULT_TIERS} == set(DataRate)

    def test_ranges_increase(self):
        ranges = [t.nominal_range_m for t in DEFAULT_TIERS]
        assert ranges == sorted(ranges)

    def test_tier_for_short_distance(self):
        tier = tier_for_distance(100.0)
        assert tier is not None
        assert tier.dr is DataRate.DR5

    def test_tier_for_long_distance(self):
        tier = tier_for_distance(1900.0)
        assert tier is not None
        assert tier.dr is DataRate.DR0

    def test_out_of_reach(self):
        assert tier_for_distance(10_000.0) is None

    @given(d=st.floats(min_value=1.0, max_value=1999.0))
    def test_selected_tier_covers_distance(self, d):
        tier = tier_for_distance(d)
        assert tier is not None
        assert tier.nominal_range_m >= d


class TestDirectionalAntenna:
    def test_boresight_full_gain(self):
        ant = DirectionalAntenna()
        assert ant.gain_db(0.0) == pytest.approx(12.0)

    def test_within_beamwidth(self):
        ant = DirectionalAntenna(beamwidth_deg=60.0)
        assert ant.gain_db(29.0) == pytest.approx(12.0)

    def test_back_lobe_rejection(self):
        ant = DirectionalAntenna()
        assert ant.gain_db(0.0) - ant.gain_db(180.0) == pytest.approx(40.0)

    def test_rejection_within_paper_range(self):
        # The paper measures 14-40 dB attenuation off the steered beam.
        ant = DirectionalAntenna()
        for bearing in (45, 90, 135, 180):
            rejection = ant.gain_db(0.0) - ant.gain_db(bearing)
            assert 14.0 <= rejection <= 40.0

    @given(bearing=st.floats(min_value=-720, max_value=720))
    def test_gain_bounded(self, bearing):
        ant = DirectionalAntenna()
        g = ant.gain_db(bearing)
        assert 12.0 - 40.0 <= g <= 12.0

    def test_wraparound(self):
        ant = DirectionalAntenna()
        assert ant.gain_db(350.0) == pytest.approx(ant.gain_db(-10.0))
