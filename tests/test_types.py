"""Tests for the shared core types."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.phy.channels import Channel
from repro.phy.lora import (
    SpreadingFactor,
    preamble_duration_s,
    time_on_air_s,
)
from repro.types import Observation, Transmission, time_overlap_s

CH = Channel(923_100_000.0)


def make_tx(start=0.0, sf=SpreadingFactor.SF8, payload=20, node=1):
    return Transmission(
        node_id=node,
        network_id=1,
        channel=CH,
        sf=sf,
        start_s=start,
        payload_bytes=payload,
    )


class TestTransmission:
    def test_airtime_matches_phy(self):
        tx = make_tx()
        assert tx.airtime_s == pytest.approx(
            time_on_air_s(20, SpreadingFactor.SF8)
        )

    def test_lock_on_is_start_plus_preamble(self):
        tx = make_tx(start=2.0)
        assert tx.lock_on_s == pytest.approx(
            2.0 + preamble_duration_s(SpreadingFactor.SF8)
        )

    def test_end_after_lock_on(self):
        tx = make_tx()
        assert tx.end_s > tx.lock_on_s > tx.start_s

    def test_params_roundtrip(self):
        tx = make_tx(sf=SpreadingFactor.SF11)
        assert tx.params.sf is SpreadingFactor.SF11

    def test_key_distinguishes_counters(self):
        a = Transmission(1, 1, CH, SpreadingFactor.SF7, 0.0, counter=1)
        b = Transmission(1, 1, CH, SpreadingFactor.SF7, 0.0, counter=2)
        assert a.key() != b.key()

    def test_observation_shorthand(self):
        tx = make_tx()
        obs = Observation(transmission=tx, rssi_dbm=-100.0)
        assert obs.tx is tx


class TestTimingCache:
    """``airtime_s``, ``end_s`` and ``lock_on_s`` are computed once, at
    construction, and are not dataclass fields."""

    @pytest.mark.parametrize("bandwidth_hz", [125_000, 250_000, 500_000])
    @pytest.mark.parametrize("sf", list(SpreadingFactor))
    def test_matches_phy_for_every_payload(self, sf, bandwidth_hz):
        channel = Channel(923_100_000.0, bandwidth_hz)
        for payload in range(256):
            tx = Transmission(1, 1, channel, sf, 1.25, payload_bytes=payload)
            airtime = time_on_air_s(payload, sf, bandwidth_hz)
            assert tx.airtime_s == airtime
            assert tx.end_s == 1.25 + airtime
            assert tx.lock_on_s == 1.25 + preamble_duration_s(sf, bandwidth_hz)

    def test_replace_recomputes(self):
        tx = make_tx(start=1.0, sf=SpreadingFactor.SF8)
        moved = dataclasses.replace(tx, start_s=3.0)
        assert moved.end_s == 3.0 + tx.airtime_s
        assert moved.lock_on_s == 3.0 + tx.preamble_s
        slower = dataclasses.replace(tx, sf=SpreadingFactor.SF12)
        assert slower.airtime_s == time_on_air_s(20, SpreadingFactor.SF12)
        assert slower.end_s == 1.0 + slower.airtime_s
        assert slower.lock_on_s == 1.0 + preamble_duration_s(
            SpreadingFactor.SF12
        )

    def test_not_dataclass_fields(self):
        assert [f.name for f in dataclasses.fields(Transmission)] == [
            "node_id",
            "network_id",
            "channel",
            "sf",
            "start_s",
            "payload_bytes",
            "tx_power_dbm",
            "counter",
            "confirmed",
            "attempt",
        ]

    def test_eq_hash_repr_see_only_fields(self):
        a = make_tx(start=2.0)
        b = make_tx(start=2.0)
        assert a == b and hash(a) == hash(b)
        assert make_tx(start=2.5) != a
        assert repr(a) == (
            "Transmission(node_id=1, network_id=1, channel=Channel("
            "center_hz=923100000.0, bandwidth_hz=125000), "
            "sf=<SpreadingFactor.SF8: 8>, start_s=2.0, payload_bytes=20, "
            "tx_power_dbm=14.0, counter=0, confirmed=False, attempt=0)"
        )

    def test_pickle_round_trip(self):
        tx = make_tx(start=0.5, sf=SpreadingFactor.SF10)
        back = pickle.loads(pickle.dumps(tx))
        assert back == tx and hash(back) == hash(tx)
        assert (back.airtime_s, back.end_s, back.lock_on_s) == (
            tx.airtime_s,
            tx.end_s,
            tx.lock_on_s,
        )

    def test_frozen(self):
        tx = make_tx()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tx.end_s = 0.0


class TestTimeOverlap:
    def test_full_overlap(self):
        a = make_tx(start=0.0)
        b = make_tx(start=0.0, node=2)
        assert time_overlap_s(a, b) == pytest.approx(a.airtime_s)

    def test_disjoint(self):
        a = make_tx(start=0.0)
        b = make_tx(start=a.end_s + 1.0, node=2)
        assert time_overlap_s(a, b) == 0.0

    def test_partial(self):
        a = make_tx(start=0.0)
        b = make_tx(start=a.airtime_s / 2, node=2)
        assert time_overlap_s(a, b) == pytest.approx(a.airtime_s / 2)

    @given(
        s1=st.floats(min_value=0, max_value=5),
        s2=st.floats(min_value=0, max_value=5),
    )
    def test_symmetric_and_bounded(self, s1, s2):
        a = make_tx(start=s1)
        b = make_tx(start=s2, node=2)
        ov = time_overlap_s(a, b)
        assert ov == pytest.approx(time_overlap_s(b, a))
        assert 0.0 <= ov <= min(a.airtime_s, b.airtime_s) + 1e-12
