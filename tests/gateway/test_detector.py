"""Tests for front-end channel matching and preamble detection."""

import pytest

from repro.gateway.detector import RxChannels, detect, match_rx_channel
from repro.phy.channels import Channel, ChannelGrid
from repro.phy.link import noise_floor_dbm
from repro.phy.lora import SNR_THRESHOLD_DB, SpreadingFactor
from repro.types import Observation, Transmission

GRID = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
CHANNELS = GRID.channels()
NOISE = noise_floor_dbm(125_000)


def make_obs(channel, sf=SpreadingFactor.SF8, snr_db=10.0, start=0.0):
    tx = Transmission(
        node_id=1,
        network_id=1,
        channel=channel,
        sf=sf,
        start_s=start,
        payload_bytes=10,
    )
    return Observation(transmission=tx, rssi_dbm=NOISE + snr_db)


class TestChannelMatching:
    def test_exact_match(self):
        assert match_rx_channel(CHANNELS[2], CHANNELS) == CHANNELS[2]

    def test_small_offset_matches(self):
        probe = CHANNELS[2].shifted(10e3)
        assert match_rx_channel(probe, CHANNELS) == CHANNELS[2]

    def test_misaligned_rejected(self):
        probe = CHANNELS[2].shifted(100e3)
        assert match_rx_channel(probe, CHANNELS) is None

    def test_out_of_band_rejected(self):
        probe = Channel(950e6)
        assert match_rx_channel(probe, CHANNELS) is None

    def test_empty_channel_list(self):
        assert match_rx_channel(CHANNELS[0], []) is None


class TestRxChannelsMemo:
    PROBES = [
        ch.shifted(delta)
        for ch in CHANNELS
        for delta in (0.0, 10e3, -31_250.0, 62_500.0, 100e3)
    ] + [Channel(CHANNELS[3].center_hz, 250_000.0), Channel(950e6)]

    def test_matches_plain_sequence(self):
        memo = RxChannels(CHANNELS)
        for _ in range(2):  # second pass answers from the memo
            for probe in self.PROBES:
                assert match_rx_channel(probe, memo) is match_rx_channel(
                    probe, CHANNELS
                )
        assert len(memo.matches) == len(set(self.PROBES))

    def test_ties_keep_sequence_order(self):
        # A probe centred between two receive channels overlaps both
        # equally; the first in the sequence wins, as without the memo.
        low, high = CHANNELS[2].shifted(-10e3), CHANNELS[2].shifted(10e3)
        probe = CHANNELS[2]
        assert match_rx_channel(probe, RxChannels([low, high])) is low
        assert match_rx_channel(probe, RxChannels([high, low])) is high

    def test_is_a_tuple(self):
        memo = RxChannels(CHANNELS)
        assert memo == tuple(CHANNELS) and len(memo) == len(CHANNELS)


class TestDetect:
    def test_clean_detection(self):
        det = detect(make_obs(CHANNELS[0]), CHANNELS)
        assert det is not None
        assert det.rx_channel == CHANNELS[0]
        assert det.snr_db == pytest.approx(10.0, abs=0.1)

    def test_lock_on_at_preamble_end(self):
        obs = make_obs(CHANNELS[0], sf=SpreadingFactor.SF10, start=1.0)
        det = detect(obs, CHANNELS)
        assert det.lock_on_s == pytest.approx(
            1.0 + obs.transmission.preamble_s
        )

    def test_below_threshold_not_detected(self):
        snr = SNR_THRESHOLD_DB[SpreadingFactor.SF8] - 0.5
        assert detect(make_obs(CHANNELS[0], snr_db=snr), CHANNELS) is None

    def test_just_above_threshold_detected(self):
        snr = SNR_THRESHOLD_DB[SpreadingFactor.SF8] + 0.5
        assert detect(make_obs(CHANNELS[0], snr_db=snr), CHANNELS) is not None

    def test_sub_noise_sf12_detected(self):
        # LoRa detects well below the noise floor at SF12.
        obs = make_obs(CHANNELS[0], sf=SpreadingFactor.SF12, snr_db=-20.0)
        assert detect(obs, CHANNELS) is not None

    def test_foreign_misaligned_channel_invisible(self):
        obs = make_obs(CHANNELS[0].shifted(75e3), snr_db=30.0)
        assert detect(obs, CHANNELS) is None
