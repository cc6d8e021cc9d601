"""Equivalence of the shared reception kernels with brute-force references.

Both reception loops (``Gateway.receive`` and the online engine) find a
packet's interferers through ``Gateway._interferers_for`` over a
precomputed time index and judge it with ``decode_ok``.  These tests
rebuild both from the public PHY helpers (``time_overlap_s``,
``overlap_hz``, ``overlap_ratio``, ``sf_isolation_db``,
``overlap_rejection_db``) on seeded random traffic that includes the
edge cases: packets touching exactly in time, passbands touching
exactly, mixed 125/250/500 kHz channels and every SF pair.
"""

import math
import random
from typing import Dict, List

import pytest

from repro.gateway.detector import Detection, detect
from repro.gateway.gateway import Gateway
from repro.gateway.models import get_model
from repro.phy.channels import (
    INDEX_BUCKET_HZ,
    Channel,
    ChannelGrid,
    overlap_hz,
    overlap_ratio,
)
from repro.phy.interference import (
    _SF_ISOLATION_DB,
    CO_SF_CAPTURE_DB,
    DETECTION_MIN_OVERLAP,
    Interferer,
    decode_ok,
    effective_noise_mw,
    overlap_rejection_db,
    sf_isolation_db,
)
from repro.phy.link import Position, noise_floor_dbm
from repro.phy.lora import SNR_THRESHOLD_DB, SpreadingFactor
from repro.sim.engine import OnlineSimulator
from repro.sim.metrics import CollisionIndex
from repro.sim.simulator import tx_key
from repro.types import Observation, Transmission, time_overlap_s

GRID = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
RX_CHANNELS = GRID.channels()
NOISE = noise_floor_dbm(125_000)
SFS = list(SpreadingFactor)


def packet_channels():
    """Aligned channels plus passbands that touch or straddle them."""
    out = list(RX_CHANNELS)
    for base in RX_CHANNELS[::2]:
        c = base.center_hz
        out += [
            Channel(c + 125_000.0),  # touches ``base`` exactly
            Channel(c - 62_500.0),  # half overlap
            Channel(c + 187_500.0, 250_000.0),  # touches ``base`` exactly
            Channel(c + 100_000.0, 250_000.0),
            Channel(c, 500_000.0),
            Channel(c + 312_500.0, 500_000.0),  # touches ``base`` exactly
        ]
    return out


def random_observations(seed: int, count: int = 160) -> List[Observation]:
    """Seeded traffic over a short window; some packets start exactly
    when an earlier one ends, some of those on its channel and SF."""
    rng = random.Random(seed)
    channels = packet_channels()
    txs: List[Transmission] = []
    for i in range(count):
        channel, sf = rng.choice(channels), rng.choice(SFS)
        if txs and rng.random() < 0.2:
            before = rng.choice(txs)
            start = before.end_s  # touches in time
            if rng.random() < 0.5:  # ... as a would-be collision
                channel, sf = before.channel, before.sf
        else:
            start = rng.uniform(0.0, 2.0)
        txs.append(
            Transmission(
                node_id=i,
                network_id=rng.choice((1, 2)),
                channel=channel,
                sf=sf,
                start_s=start,
                payload_bytes=rng.randrange(0, 40),
            )
        )
    return [
        Observation(transmission=tx, rssi_dbm=NOISE + rng.uniform(-25.0, 25.0))
        for tx in txs
    ]


def make_gateway() -> Gateway:
    return Gateway(
        gateway_id=7,
        network_id=1,
        position=Position(0, 0),
        channels=RX_CHANNELS,
        model=get_model("RAK7268CV2"),
    )


def bucket(tx: Transmission) -> int:
    return int(tx.channel.center_hz // INDEX_BUCKET_HZ)


def reference_interferers(
    me_obs: Observation, observations: List[Observation]
) -> List[Interferer]:
    """Every other packet that overlaps in time and in frequency, however
    far apart the channel centres are.  Listed in the index's order:
    200 kHz bucket by bucket upwards, each bucket in start order."""
    me = me_obs.transmission
    candidates = sorted(
        (
            (bucket(obs.transmission), obs.transmission.start_s, i, obs)
            for i, obs in enumerate(observations)
        ),
        key=lambda c: c[:3],
    )
    out: List[Interferer] = []
    for _key, _start, _i, obs in candidates:
        other = obs.transmission
        if other is me:
            continue
        if time_overlap_s(me, other) <= 0.0:
            continue
        if overlap_hz(me.channel, other.channel) <= 0.0:
            continue
        out.append(
            Interferer(
                rssi_dbm=obs.rssi_dbm,
                sf=other.sf,
                channel=other.channel,
                same_network=other.network_id == me.network_id,
            )
        )
    return out


def reference_noise_mw(noise_dbm, sf, channel, interferers) -> float:
    total = 10.0 ** (noise_dbm / 10.0)
    for intf in interferers:
        ov = overlap_ratio(channel, intf.channel)
        if ov <= 0.0:
            continue
        isolation = overlap_rejection_db(ov) + sf_isolation_db(sf, intf.sf)
        total += 10.0 ** ((intf.rssi_dbm - isolation) / 10.0)
    return total


def reference_decode_ok(rssi_dbm, noise_dbm, sf, channel, interferers) -> bool:
    noise_mw = reference_noise_mw(noise_dbm, sf, channel, interferers)
    if rssi_dbm - 10.0 * math.log10(noise_mw) < SNR_THRESHOLD_DB[sf]:
        return False
    for intf in interferers:
        ov = overlap_ratio(channel, intf.channel)
        if ov >= DETECTION_MIN_OVERLAP and intf.sf == sf:
            if rssi_dbm - intf.rssi_dbm < CO_SF_CAPTURE_DB:
                return False
    return True


def test_sf_isolation_table_pinned_to_function():
    for desired in SpreadingFactor:
        for interferer in SpreadingFactor:
            assert _SF_ISOLATION_DB[desired][interferer] == sf_isolation_db(
                desired, interferer
            )


def test_traffic_covers_the_edge_cases():
    observations = random_observations(seed=0)
    txs = [o.transmission for o in observations]
    ends = {tx.end_s for tx in txs}
    assert any(tx.start_s in ends for tx in txs)  # touching in time
    highs = {tx.channel.high_hz for tx in txs}
    assert any(tx.channel.low_hz in highs for tx in txs)  # touching passbands
    assert {tx.channel.bandwidth_hz for tx in txs} == {125_000, 250_000, 500_000}


@pytest.mark.parametrize("seed", range(6))
def test_interferers_match_brute_force(seed):
    observations = random_observations(seed)
    gw = make_gateway()
    index = gw._build_time_index(observations)
    seen = 0
    for obs in observations:
        det = Detection(
            observation=obs,
            rx_channel=obs.transmission.channel,
            lock_on_s=obs.transmission.lock_on_s,
            snr_db=obs.rssi_dbm - NOISE,
        )
        got = gw._interferers_for(det, index)
        assert got == reference_interferers(obs, observations)
        seen += len(got)
    assert seen > 0


def _detection(obs: Observation) -> Detection:
    tx = obs.transmission
    return Detection(obs, tx.channel, tx.lock_on_s, obs.rssi_dbm - NOISE)


def test_wide_channels_two_buckets_apart_see_each_other():
    # 250 kHz passbands at 923.39 and 923.61 MHz share 30 kHz, yet
    # their centres fall two 200 kHz buckets apart.
    observations = [
        Observation(
            Transmission(
                node_id=i,
                network_id=1,
                channel=Channel(center, 250_000.0),
                sf=SpreadingFactor.SF9,
                start_s=0.01 * i,
            ),
            rssi_dbm=NOISE + 10.0 * i,
        )
        for i, center in enumerate((923.39e6, 923.61e6))
    ]
    a, b = (o.transmission for o in observations)
    assert bucket(b) - bucket(a) == 2
    assert overlap_hz(a.channel, b.channel) == pytest.approx(30_000.0)
    gw = make_gateway()
    index = gw._build_time_index(observations)
    for obs in observations:
        got = gw._interferers_for(_detection(obs), index)
        assert len(got) == 1
        assert got == reference_interferers(obs, observations)


def test_collision_index_sees_a_wide_channel_two_buckets_away():
    # A 125 kHz packet 210 kHz from a 500 kHz channel's centre overlaps
    # 82% of its own passband.
    wide = Transmission(
        node_id=1, network_id=1, channel=Channel(923.39e6, 500_000.0),
        sf=SpreadingFactor.SF9, start_s=0.0,
    )
    narrow = Transmission(
        node_id=2, network_id=2, channel=Channel(923.60e6),
        sf=SpreadingFactor.SF9, start_s=0.01,
    )
    assert bucket(narrow) - bucket(wide) == 2
    assert overlap_ratio(wide.channel, narrow.channel) == pytest.approx(0.82)
    index = CollisionIndex([wide, narrow])
    assert index.interferer_networks(wide) == [2]
    assert index.interferer_networks(narrow) == [1]


@pytest.mark.parametrize("seed", range(6))
def test_decode_ok_matches_brute_force(seed):
    observations = random_observations(seed)
    gw = make_gateway()
    index = gw._build_time_index(observations)
    verdicts = set()
    for obs in observations:
        tx = obs.transmission
        det = Detection(obs, tx.channel, tx.lock_on_s, obs.rssi_dbm - NOISE)
        interferers = gw._interferers_for(det, index)
        noise = noise_floor_dbm(tx.channel.bandwidth_hz)
        assert effective_noise_mw(
            noise, tx.sf, tx.channel, interferers
        ) == reference_noise_mw(noise, tx.sf, tx.channel, interferers)
        got = decode_ok(obs.rssi_dbm, noise, tx.sf, tx.channel, interferers)
        want = reference_decode_ok(
            obs.rssi_dbm, noise, tx.sf, tx.channel, interferers
        )
        assert got == want
        verdicts.add(got)
    assert verdicts == {True, False}


def test_decode_ok_every_sf_pair():
    rng = random.Random(11)
    channel = RX_CHANNELS[3]
    channels = packet_channels()
    for desired in SpreadingFactor:
        for other in SpreadingFactor:
            for _ in range(20):
                interferers = [
                    Interferer(
                        rssi_dbm=NOISE + rng.uniform(-30.0, 20.0),
                        sf=other,
                        channel=rng.choice(channels),
                    )
                    for _ in range(rng.randrange(1, 4))
                ]
                rssi = NOISE + rng.uniform(-25.0, 25.0)
                assert decode_ok(
                    rssi, NOISE, desired, channel, interferers
                ) == reference_decode_ok(rssi, NOISE, desired, channel, interferers)


class _FixedObservations(OnlineSimulator):
    """Serves one prebuilt observation set to every gateway."""

    def __init__(self, gateways, observations):
        super().__init__(gateways, devices=[])
        self._observations = observations

    def observations_at(self, gateway, transmissions):
        return list(self._observations)


def fates(result):
    return {
        key: [r.outcome for r in records]
        for key, records in result.receptions.items()
    }


@pytest.mark.parametrize("seed", range(3))
def test_both_loops_see_identical_interferers(seed, monkeypatch):
    observations = random_observations(seed)
    txs = [o.transmission for o in observations]
    by_tx = {tx_key(o.transmission): o for o in observations}
    seen: Dict[str, Dict[tuple, List[Interferer]]] = {}
    original = Gateway._interferers_for

    def recording(self, det, index):
        found = original(self, det, index)
        seen[current].setdefault(tx_key(det.tx), found)
        return found

    monkeypatch.setattr(Gateway, "_interferers_for", recording)
    current = "batch"
    seen[current] = {}
    batch = _FixedObservations([make_gateway()], observations).run(txs)
    current = "online"
    seen[current] = {}
    online = _FixedObservations([make_gateway()], observations).run_online(txs)

    assert seen["batch"] == seen["online"]
    assert len(seen["batch"]) > 0
    for key, interferers in seen["batch"].items():
        assert interferers == reference_interferers(by_tx[key], observations)
    assert fates(batch) == fates(online)


def test_detect_uses_the_gateway_memo():
    gw = make_gateway()
    obs = random_observations(seed=4, count=40)
    for o in obs:
        detect(o, gw.channels)
    assert gw.channels.matches  # filled by detect
    gw.configure(RX_CHANNELS[:4])
    assert gw.channels.matches == {}  # a new configuration starts empty


@pytest.mark.parametrize("seed", range(3))
def test_collision_index_matches_brute_force(seed):
    txs = [o.transmission for o in random_observations(seed)]
    index = CollisionIndex(txs)
    # No frequency window: every co-SF packet, bucket by bucket, each
    # bucket in start order (sorted() is stable).
    ordered = sorted(txs, key=lambda o: (bucket(o), o.start_s))
    for tx in txs:
        want = [
            other.network_id
            for other in ordered
            if other is not tx
            and other.sf == tx.sf
            and overlap_ratio(other.channel, tx.channel) >= DETECTION_MIN_OVERLAP
            and time_overlap_s(tx, other) > 0.0
        ]
        assert index.interferer_networks(tx) == want
