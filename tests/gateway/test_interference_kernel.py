"""Equivalence of the shared reception kernels with brute-force references.

The reception loop (``Gateway.receive``, for batch and online runs)
finds a packet's interferers through ``Gateway._interferers_for`` over
a precomputed time index, as the gateway hears it, and judges it with
``decode_ok``; loss attribution reads its collision partners from the
same scan (``repro.sim.metrics._partner_networks``).  A simulated run
builds that index once for all its gateways
(``repro.sim.medium.Medium``); a batch given to ``Gateway.receive``
alone is indexed on its own.  The index stores each packet's
overlapping rows at its first decode, and every later gateway reads
them through its own RSSI row.  These tests rebuild both kernels
from the public PHY helpers (``time_overlap_s``, ``overlap_hz``,
``overlap_ratio``, ``sf_isolation_db``, ``overlap_rejection_db``) on
seeded random traffic that includes the edge cases: packets touching
exactly in time, passbands touching exactly, mixed 125/250/500 kHz
channels, misaligned plans sharing a frequency bucket, packets pruned
at one gateway only, and every SF pair.
"""

import math
import random
from typing import Dict, List

import pytest

from repro.gateway.detector import detect
from repro.gateway.gateway import Gateway, Outcome, _build_time_index
from repro.gateway.models import get_model
from repro.node.device import EndDevice
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
from repro.phy.link import PathLossModel, Position, noise_floor_dbm
from repro.phy.lora import SNR_THRESHOLD_DB, SpreadingFactor
from repro.sim.engine import OnlineSimulator
from repro.sim.medium import PRUNE_MARGIN_DB
from repro.sim.metrics import _partner_networks
from repro.sim.simulator import tx_key
from repro.sim.topology import LinkBudget
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


def misaligned_channels():
    """125 kHz plans shifted by 50/100/150 kHz: several channels share
    each 200 kHz bucket, and neighbours overlap partially."""
    return [c.shifted(d) for c in RX_CHANNELS for d in (0.0, 50e3, 100e3, 150e3)]


def random_observations(
    seed: int, count: int = 160, channels=None
) -> List[Observation]:
    """Seeded traffic over a short window; some packets start exactly
    when an earlier one ends, some of those on its channel and SF."""
    rng = random.Random(seed)
    channels = channels or packet_channels()
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


def envelope_skips(index, tx: Transmission) -> int:
    """Buckets in ``tx``'s reach whose passband envelope (the bucket's
    lowest ``low_hz`` and highest ``high_hz``) misses ``tx``'s passband,
    so the scan passes them over without reading a row.  Checks each
    stored envelope against its bucket's rows on the way."""
    buckets, reach, _ = index
    low, high = tx.channel.low_hz, tx.channel.high_hz
    skips = 0
    for key in range(bucket(tx) - reach, bucket(tx) + reach + 1):
        if key not in buckets:
            continue
        rows, _starts, _airtime, env_low, env_high = buckets[key]
        assert env_low == min(row[3] for row in rows)
        assert env_high == max(row[4] for row in rows)
        skips += min(env_high, high) <= max(env_low, low)
    return skips


@pytest.mark.parametrize("seed", range(6))
def test_interferers_match_brute_force(seed):
    # The default traffic mixes 250/500 kHz channels into most buckets;
    # on the aligned 125 kHz grid alone every neighbouring bucket's
    # envelope misses the packet's passband and the scan skips it.
    gw = make_gateway()
    for channels in (None, RX_CHANNELS):
        observations = random_observations(seed, channels=channels)
        hearing = Gateway._hearing(observations)
        seen = skipped = 0
        for p, obs in enumerate(observations):
            got = gw._interferers_for(p, hearing)
            assert got == reference_interferers(obs, observations)
            seen += len(got)
            skipped += envelope_skips(hearing.index, obs.transmission)
        assert seen > 0
        if channels is RX_CHANNELS:
            assert skipped > 0


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
    hearing = Gateway._hearing(observations)
    for p, obs in enumerate(observations):
        got = gw._interferers_for(p, hearing)
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
    index = _build_time_index([wide, narrow])
    assert _partner_networks(index, wide) == [2]
    assert _partner_networks(index, narrow) == [1]


def test_envelope_keeps_a_bucket_with_one_overlapping_row():
    # The bucket above ``me`` holds a 125 kHz row 75 kHz clear of its
    # passband and a 500 kHz row over it: the envelope spans both, so
    # the bucket is scanned and only the wide row is found.
    me = Channel(923.2e6)
    clear, wide = Channel(923.4e6), Channel(923.4e6, 500_000.0)
    observations = [
        Observation(
            Transmission(
                node_id=i, network_id=1 + i % 2, channel=channel,
                sf=SpreadingFactor.SF9, start_s=0.01 * i,
            ),
            rssi_dbm=NOISE + 5.0 * i,
        )
        for i, channel in enumerate((me, clear, wide))
    ]
    txs = [o.transmission for o in observations]
    assert bucket(txs[1]) == bucket(txs[2]) == bucket(txs[0]) + 1
    assert clear.low_hz - me.high_hz == pytest.approx(75_000.0)
    assert overlap_hz(me, wide) > 0.0
    hearing = Gateway._hearing(observations)
    assert envelope_skips(hearing.index, txs[0]) == 0
    assert envelope_skips(_build_time_index(txs[:2]), txs[0]) == 1
    got = make_gateway()._interferers_for(0, hearing)
    assert got == reference_interferers(observations[0], observations)
    assert got == [(NOISE + 10.0, SpreadingFactor.SF9, wide, True)]
    assert _partner_networks(hearing.index, txs[0]) == [1]


@pytest.mark.parametrize("seed", range(6))
def test_decode_ok_matches_brute_force(seed):
    observations = random_observations(seed)
    gw = make_gateway()
    hearing = Gateway._hearing(observations)
    verdicts = set()
    for p, obs in enumerate(observations):
        tx = obs.transmission
        # The kernel's own plain tuples go to the kernel; the reference
        # reads fields by name.
        interferers = gw._interferers_for(p, hearing)
        named = [Interferer(*t) for t in interferers]
        noise = noise_floor_dbm(tx.channel.bandwidth_hz)
        assert effective_noise_mw(
            noise, tx.sf, tx.channel, interferers
        ) == reference_noise_mw(noise, tx.sf, tx.channel, named)
        got = decode_ok(obs.rssi_dbm, noise, tx.sf, tx.channel, interferers)
        want = reference_decode_ok(
            obs.rssi_dbm, noise, tx.sf, tx.channel, named
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
                want = reference_decode_ok(rssi, NOISE, desired, channel, interferers)
                assert decode_ok(rssi, NOISE, desired, channel, interferers) == want
                plain = [tuple(intf) for intf in interferers]
                assert decode_ok(rssi, NOISE, desired, channel, plain) == want


class TableLoss(PathLossModel):
    """Path loss looked up by (device x, gateway x) coordinates."""

    def __init__(self, table):
        self.table = table

    def path_loss_db(self, a, b):
        return self.table[(a.x, b.x)]


CUTOFF = NOISE - PRUNE_MARGIN_DB


def deployment(seed: int, gateways: int = 1, channels=None):
    """``random_observations``' traffic sent by one device per packet to
    ``gateways`` gateways.  With one gateway every packet is heard at
    its drawn RSSI; with more, each link draws an RSSI from 40 dB below
    to 25 dB above the noise floor, so some packets are pruned at some
    gateways (below ``NOISE - PRUNE_MARGIN_DB``) and heard at others.

    Returns (gateways, devices, link, transmissions)."""
    observations = random_observations(seed, channels=channels)
    rng = random.Random(1000 + seed)
    gws = [
        Gateway(
            gateway_id=7 + g,
            network_id=1,
            position=Position(-1.0 - g, 0.0),
            channels=RX_CHANNELS,
            model=get_model("RAK7268CV2"),
        )
        for g in range(gateways)
    ]
    devices, table = [], {}
    for i, obs in enumerate(observations):
        tx = obs.transmission
        devices.append(
            EndDevice(tx.node_id, tx.network_id, Position(float(i), 0.0), tx.channel)
        )
        for gw in gws:
            rssi = obs.rssi_dbm if gateways == 1 else NOISE + rng.uniform(-40.0, 25.0)
            table[(float(i), gw.position.x)] = tx.tx_power_dbm - rssi
    link = LinkBudget(path_loss=TableLoss(table))
    return gws, devices, link, [o.transmission for o in observations]


def fates(result):
    return {
        key: [r.outcome for r in records]
        for key, records in result.receptions.items()
    }


def recording_interferers(monkeypatch):
    """Record every ``_interferers_for`` answer by (gateway, packet) under
    the label ``seen["label"]`` names at call time."""
    seen: Dict[str, Dict[tuple, List[Interferer]]] = {}
    original = Gateway._interferers_for

    def recording(self, p, hearing):
        found = original(self, p, hearing)
        key = (self.gateway_id, tx_key(hearing.transmissions[p]))
        seen[seen["label"]].setdefault(key, found)
        return found

    monkeypatch.setattr(Gateway, "_interferers_for", recording)
    return seen


def start(seen, label):
    seen["label"] = label
    seen[label] = {}


@pytest.mark.parametrize("seed", range(3))
def test_both_loops_see_identical_interferers(seed, monkeypatch):
    gws, devices, link, txs = deployment(seed)
    sim = OnlineSimulator(gws, devices, link=link)
    observations = sim.observations_at(gws[0], txs)
    assert len(observations) == len(txs)
    by_tx = {tx_key(o.transmission): o for o in observations}
    seen = recording_interferers(monkeypatch)
    start(seen, "batch")
    batch = sim.run(txs)
    start(seen, "online")
    online = sim.run_online(txs)

    assert seen["batch"] == seen["online"]
    assert len(seen["batch"]) > 0
    for (_gw, key), interferers in seen["batch"].items():
        assert interferers == reference_interferers(by_tx[key], observations)
    assert fates(batch) == fates(online)


@pytest.mark.parametrize("seed", range(6))
def test_run_matches_each_gateway_receiving_its_own_batch(seed, monkeypatch):
    # The run's shared index, read through each gateway's RSSI row,
    # against Gateway.receive indexing that gateway's batch alone.
    gws, devices, link, txs = deployment(seed, gateways=3)
    sim = OnlineSimulator(gws, devices, link=link)
    heard = {gw.gateway_id: sim.observations_at(gw, txs) for gw in gws}
    assert 0 < min(len(obs) for obs in heard.values())
    assert max(len(obs) for obs in heard.values()) < len(txs)  # some pruned
    seen = recording_interferers(monkeypatch)
    start(seen, "shared")
    result = sim.run(txs)
    online = sim.run_online(txs)
    start(seen, "own")
    for gw in gws:
        alone = gw.receive(list(heard[gw.gateway_id]))  # indexed alone
        in_run = [
            r for tx in txs for r in result.records_for(tx)
            if r.gateway_id == gw.gateway_id
        ]
        assert in_run == alone
    assert seen["shared"] == seen["own"]
    assert len(seen["shared"]) > 0
    assert fates(online) == fates(result)


def heard_positions(hearing) -> List[int]:
    """The run positions ``hearing`` hears, in the run order its
    observations iterate in."""
    return [p for p, rssi in enumerate(hearing.rssi_dbm) if rssi is not None]


def pruned_partner():
    """Two packets on one channel and SF: packet 0 is heard at both
    gateways, packet 1 only at gateway 1.

    Returns (simulator, gateways, transmissions, path-loss table)."""
    channel, sf = RX_CHANNELS[2], SpreadingFactor.SF9
    txs = [
        Transmission(node_id=i, network_id=1, channel=channel, sf=sf, start_s=0.01 * i)
        for i in range(2)
    ]
    gws = [
        Gateway(gid, 1, Position(-1.0 - gid, 0.0), RX_CHANNELS)
        for gid in range(2)
    ]
    devices = [
        EndDevice(tx.node_id, 1, Position(float(tx.node_id), 0.0), channel)
        for tx in txs
    ]
    rssi = {(0, 0): NOISE + 10.0, (0, 1): NOISE + 10.0,
            (1, 0): CUTOFF - 1.0, (1, 1): NOISE - 5.0}
    table = {
        (float(node), -1.0 - gid): 14.0 - value
        for (node, gid), value in rssi.items()
    }
    sim = OnlineSimulator(gws, devices, link=LinkBudget(path_loss=TableLoss(table)))
    return sim, gws, txs, table


def test_packet_pruned_at_one_gateway_interferes_only_at_the_other():
    sim, gws, txs, table = pruned_partner()
    medium = sim.medium(txs)
    found = {}
    for gw in gws:
        obs = sim.observations_at(gw, txs, medium)
        hearing = medium.hearing(gw)
        me = next(o for o in obs if o.transmission is txs[0])
        found[gw.gateway_id] = gw._interferers_for(0, hearing)
        assert found[gw.gateway_id] == reference_interferers(me, obs)
    assert [o.transmission for o in sim.observations_at(gws[0], txs)] == txs[:1]
    assert found[0] == []
    assert found[1] == [
        Interferer(
            rssi_dbm=14.0 + 0.0 - table[(1.0, -2.0)], sf=txs[1].sf,
            channel=txs[1].channel,
        )
    ]


@pytest.mark.parametrize("first", [0, 1], ids=["pruned-first", "heard-first"])
def test_stored_partner_reaches_every_gateway_in_either_order(first):
    # The run's index stores packet 0's overlapping rows at its first
    # decode, before the heard filter: gateway 0 pruning packet 1 must
    # not hide it from gateway 1, whichever gateway decodes first.
    sim, gws, txs, _table = pruned_partner()
    medium = sim.medium(txs)
    for gw in (gws[first], gws[1 - first]):
        obs = sim.observations_at(gw, txs, medium)
        hearing = medium.hearing(gw)
        me = next(o for o in obs if o.transmission is txs[0])
        assert gw._interferers_for(0, hearing) == reference_interferers(me, obs)
    stored = medium.hearing(gws[0]).index[2]
    assert [row[0] for row in stored[0]] == [txs[1]]
    assert stored[1] is None  # never decoded here


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_stored_interferers_match_brute_force_in_either_gateway_order(
    seed, reverse
):
    gws, devices, link, txs = deployment(seed, gateways=3)
    sim = OnlineSimulator(gws, devices, link=link)
    medium = sim.medium(txs)
    pruned_partners = 0
    for gw in gws[::-1] if reverse else gws:
        obs = sim.observations_at(gw, txs, medium)
        hearing = medium.hearing(gw)
        for p, o in zip(heard_positions(hearing), obs):
            got = gw._interferers_for(p, hearing)
            assert got == reference_interferers(o, obs)
            pruned_partners += len(hearing.index[2][p]) > len(got)
    assert pruned_partners > 0  # stored rows some gateway does not hear


DECODED = {Outcome.RECEIVED, Outcome.FILTERED_FOREIGN, Outcome.DECODE_FAILED}


@pytest.mark.parametrize("seed", range(3))
def test_one_stored_list_per_decoded_packet_and_reruns_repeat(seed):
    gws, devices, link, txs = deployment(seed, gateways=3)
    sim = OnlineSimulator(gws, devices, link=link)
    medium = sim.medium(txs)
    views = [medium.hearing(gw) for gw in gws]
    first = [gw.receive(view) for gw, view in zip(gws, views)]
    position = {id(tx): p for p, tx in enumerate(txs)}
    decodes = [
        position[id(r.transmission)]
        for records in first for r in records if r.outcome in DECODED
    ]
    stored = views[0].index[2]
    filled = {p for p, rows in enumerate(stored) if rows is not None}
    assert filled == set(decodes)
    assert len(decodes) > len(filled)  # some packets decode at 2+ gateways
    # The same views again: the stored lists serve every decode.
    assert [gw.receive(view) for gw, view in zip(gws, views)] == first
    # A new run's index starts with nothing stored.
    assert set(sim.medium(txs).hearing(gws[0]).index[2]) == {None}


@pytest.mark.parametrize("seed", range(4))
def test_misaligned_plans_keep_the_bucket_start_position_order(seed):
    # 50/100/150 kHz shifts put several channels in one 200 kHz bucket;
    # the shared index must still list interferers in (bucket, start,
    # position) order among the packets each gateway hears.
    gws, devices, link, txs = deployment(
        seed, gateways=2, channels=misaligned_channels()
    )
    assert len({bucket(tx) for tx in txs}) < len({tx.channel for tx in txs})
    sim = OnlineSimulator(gws, devices, link=link)
    medium = sim.medium(txs)
    seen = 0
    for gw in gws:
        obs = sim.observations_at(gw, txs, medium)
        hearing = medium.hearing(gw)
        for p, o in zip(heard_positions(hearing), obs):
            got = gw._interferers_for(p, hearing)
            assert got == reference_interferers(o, obs)
            seen += len(got) > 1
    assert seen > 0


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
    # Mixed bandwidths, then the aligned 125 kHz grid alone, where the
    # scan skips every neighbouring bucket on its envelope.
    for channels in (None, RX_CHANNELS):
        txs = [o.transmission for o in random_observations(seed, channels=channels)]
        index = _build_time_index(txs)
        # No frequency window: every co-SF packet, bucket by bucket, each
        # bucket in start order (sorted() is stable).
        ordered = sorted(txs, key=lambda o: (bucket(o), o.start_s))
        found = 0
        for tx in txs:
            want = [
                other.network_id
                for other in ordered
                if other is not tx
                and other.sf == tx.sf
                and overlap_ratio(other.channel, tx.channel) >= DETECTION_MIN_OVERLAP
                and time_overlap_s(tx, other) > 0.0
            ]
            assert _partner_networks(index, tx) == want
            found += len(want)
        assert found > 0
