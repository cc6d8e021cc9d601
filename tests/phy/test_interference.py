"""Tests for capture, SF isolation, overlap rejection, and detection."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.channels import Channel, overlap_hz
from repro.phy.interference import (
    CAPTURE_THRESHOLD_DB,
    CO_SF_CAPTURE_DB,
    DETECTION_MIN_OVERLAP,
    Interferer,
    capture_threshold_db,
    decode_ok,
    is_detectable,
    orthogonal,
    overlap_rejection_db,
    sf_isolation_db,
    sinr_db,
)
from repro.phy.link import noise_floor_dbm
from repro.phy.lora import SNR_THRESHOLD_DB, SpreadingFactor

BW = 125_000.0
NOISE = noise_floor_dbm(BW)
CH = Channel(923_100_000.0, BW)


class TestCaptureMatrix:
    def test_diagonal_is_co_sf_margin(self):
        for sf in SpreadingFactor:
            assert capture_threshold_db(sf, sf) == CO_SF_CAPTURE_DB

    def test_off_diagonal_negative(self):
        for a in SpreadingFactor:
            for b in SpreadingFactor:
                if a != b:
                    assert capture_threshold_db(a, b) < 0

    def test_matrix_complete(self):
        assert set(CAPTURE_THRESHOLD_DB) == set(SpreadingFactor)
        for row in CAPTURE_THRESHOLD_DB.values():
            assert set(row) == set(SpreadingFactor)


class TestOrthogonality:
    def test_same_sf_not_orthogonal(self):
        assert not orthogonal(SpreadingFactor.SF7, SpreadingFactor.SF7)

    def test_different_sf_orthogonal(self):
        assert orthogonal(SpreadingFactor.SF7, SpreadingFactor.SF12)

    def test_isolation_zero_for_co_sf(self):
        assert sf_isolation_db(SpreadingFactor.SF9, SpreadingFactor.SF9) == 0

    def test_isolation_positive_cross_sf(self):
        assert sf_isolation_db(SpreadingFactor.SF9, SpreadingFactor.SF7) > 10


class TestOverlapRejection:
    def test_aligned_no_rejection(self):
        assert overlap_rejection_db(1.0) == 0.0

    def test_disjoint_full_rejection(self):
        assert overlap_rejection_db(0.0) == pytest.approx(45.0)

    def test_40pct_misalignment_gives_18db(self):
        assert overlap_rejection_db(0.6) == pytest.approx(18.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            overlap_rejection_db(1.5)

    @given(o=st.floats(min_value=0, max_value=1))
    def test_monotone_decreasing_in_overlap(self, o):
        assert overlap_rejection_db(o) >= overlap_rejection_db(min(o + 0.1, 1.0))


class TestDetectability:
    def test_aligned_detectable(self):
        assert is_detectable(CH, CH)

    def test_20pct_overlap_not_detectable(self):
        # Strategy 8: misaligned coexisting channels are truncated by
        # the front-end before consuming any decoder.
        assert not is_detectable(CH.shifted(100e3), CH)

    def test_small_offset_still_detectable(self):
        assert is_detectable(CH.shifted(10e3), CH)

    def test_threshold_boundary(self):
        offset = (1 - DETECTION_MIN_OVERLAP) * BW
        assert is_detectable(CH.shifted(offset * 0.99), CH)
        assert not is_detectable(CH.shifted(offset * 1.01), CH)


class TestDecode:
    def _intf(self, delta_db, sf=SpreadingFactor.SF8, channel=CH):
        return Interferer(rssi_dbm=NOISE + 10 + delta_db, sf=sf, channel=channel)

    def test_clean_decode(self):
        assert decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [])

    def test_below_threshold_fails(self):
        snr = SNR_THRESHOLD_DB[SpreadingFactor.SF8] - 1
        assert not decode_ok(NOISE + snr, NOISE, SpreadingFactor.SF8, CH, [])

    def test_co_sf_collision_without_capture_fails(self):
        intf = self._intf(0.0)  # equal power, same SF, same channel
        assert not decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf])

    def test_co_sf_capture_succeeds(self):
        intf = self._intf(-8.0)  # 8 dB weaker: capture margin is 6 dB
        assert decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf])

    def test_cross_sf_strong_interferer_tolerated(self):
        intf = self._intf(+5.0, sf=SpreadingFactor.SF11)
        assert decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf])

    def test_misaligned_co_sf_interferer_tolerated(self):
        # 40 % misalignment: 18 dB of filter rejection rescues the link.
        intf = self._intf(0.0, channel=CH.shifted(0.4 * BW))
        assert decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf])

    def test_overwhelming_cross_sf_raises_floor(self):
        # A vastly stronger orthogonal signal still adds enough residual
        # energy to break a marginal link.
        weak_snr = SNR_THRESHOLD_DB[SpreadingFactor.SF8] + 0.5
        intf = Interferer(
            rssi_dbm=NOISE + 45, sf=SpreadingFactor.SF11, channel=CH
        )
        assert not decode_ok(
            NOISE + weak_snr, NOISE, SpreadingFactor.SF8, CH, [intf]
        )

    def test_disjoint_channel_ignored(self):
        intf = self._intf(30.0, channel=CH.shifted(400e3))
        assert decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf])


class TestInterfererRecord:
    """The fields, defaults and construction forms callers rely on."""

    def test_fields_and_defaults(self):
        assert Interferer._fields == ("rssi_dbm", "sf", "channel", "same_network")
        assert Interferer._field_defaults == {"same_network": True}

    def test_keyword_and_positional_construction(self):
        by_name = Interferer(
            rssi_dbm=NOISE + 3, sf=SpreadingFactor.SF9, channel=CH, same_network=False
        )
        assert by_name == Interferer(NOISE + 3, SpreadingFactor.SF9, CH, False)
        assert (by_name.rssi_dbm, by_name.sf, by_name.channel) == (
            NOISE + 3,
            SpreadingFactor.SF9,
            CH,
        )
        assert not by_name.same_network
        assert Interferer(rssi_dbm=NOISE, sf=SpreadingFactor.SF7, channel=CH).same_network

    def test_immutable(self):
        intf = Interferer(NOISE, SpreadingFactor.SF7, CH)
        with pytest.raises(AttributeError):
            intf.rssi_dbm = 0.0

    def test_out_of_range_overlap_still_rejected(self):
        # A passband whose float edges span more than its bandwidth.
        odd = Channel(923_100_000.1, BW)
        wide = Channel(odd.center_hz, BW * (1.0 - 1e-15))
        assert overlap_hz(wide, odd) / wide.bandwidth_hz > 1.0
        with pytest.raises(ValueError, match=r"overlap ratio must be in \[0, 1\]"):
            decode_ok(NOISE + 10, NOISE, SpreadingFactor.SF8, odd, [
                Interferer(NOISE, SpreadingFactor.SF8, wide)
            ])


class TestSinr:
    def test_no_interference_equals_snr(self):
        assert sinr_db(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, []) == (
            pytest.approx(10.0)
        )

    def test_interference_lowers_sinr(self):
        intf = Interferer(rssi_dbm=NOISE + 10, sf=SpreadingFactor.SF8, channel=CH)
        assert sinr_db(
            NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf]
        ) < 10.0

    @given(delta=st.floats(min_value=-30, max_value=30))
    def test_sinr_never_exceeds_snr(self, delta):
        intf = Interferer(
            rssi_dbm=NOISE + delta, sf=SpreadingFactor.SF10, channel=CH
        )
        s = sinr_db(NOISE + 10, NOISE, SpreadingFactor.SF8, CH, [intf])
        assert s <= 10.0 + 1e-9
