"""Tests for loss classification and metrics."""

from bisect import bisect_left, bisect_right
from collections import Counter

import pytest

from repro.baselines.standard import apply_standard_lorawan
from repro.experiments.common import TESTBED_AREA_M, emulated_traffic
from repro.experiments.fig04 import (
    DEVICES_PER_NETWORK,
    USER_INTERVAL_B_S,
    WINDOW_B_S,
)
from repro.faults import BackhaulFault, FaultPlan, GatewayCrash
from repro.gateway.gateway import _build_time_index
from repro.node.traffic import capacity_burst
from repro.phy.channels import INDEX_BUCKET_HZ, bucket_reach
from repro.phy.interference import DETECTION_MIN_OVERLAP
from repro.phy.lora import DataRate
from repro.phy.regions import TESTBED_16
from repro.sim.engine import OnlineSimulator
from repro.sim.metrics import (
    LossCause,
    _partner_networks,
    classify_loss,
    loss_breakdown,
    outcome_counts,
    service_ratio,
    spectrum_utilization,
    throughput_bps,
)
from repro.sim.scenario import (
    assign_orthogonal_combos,
    assign_tier_by_reach,
    build_network,
)
from repro.sim.simulator import Simulator
from repro.sim.topology import LinkBudget


@pytest.fixture
def overloaded_result(compact_network, link):
    sim = Simulator(
        compact_network.gateways, compact_network.devices, link=link
    )
    return sim.run(capacity_burst(compact_network.devices))


class TestClassification:
    def test_delivered_and_decoder_losses(self, overloaded_result):
        causes = [
            classify_loss(tx, overloaded_result)
            for tx in overloaded_result.transmissions
        ]
        assert causes.count(LossCause.DELIVERED) == (
            overloaded_result.delivered_count()
        )
        assert causes.count(LossCause.DECODER_INTRA) == 4

    def test_intra_attribution_single_network(self, overloaded_result):
        causes = {
            classify_loss(tx, overloaded_result)
            for tx in overloaded_result.transmissions
        }
        assert LossCause.DECODER_INTER not in causes

    def test_inter_attribution(self, plan_16, link):
        net1 = build_network(
            1, 1, 10, list(plan_16), seed=0, width_m=200, height_m=200
        )
        net2 = build_network(
            2,
            1,
            10,
            list(plan_16),
            seed=1,
            gateway_id_base=100,
            node_id_base=1000,
            width_m=200,
            height_m=200,
        )
        chans = list(plan_16)
        assign_orthogonal_combos(net1.devices, chans[:4])
        assign_orthogonal_combos(net2.devices, chans[4:])
        all_devices = net1.devices + net2.devices
        sim = Simulator(net1.gateways + net2.gateways, all_devices, link=link)
        result = sim.run(capacity_burst(all_devices))
        causes = [classify_loss(tx, result) for tx in result.transmissions]
        assert LossCause.DECODER_INTER in causes

    def test_channel_contention_detected(self, plan_16, link):
        net = build_network(
            1, 1, 2, list(plan_16), seed=0, width_m=100, height_m=100
        )
        # Both nodes on the same (channel, DR) cell: a pure collision.
        for dev in net.devices:
            dev.apply_config(channel=list(plan_16)[0], dr=DataRate.DR4)
        sim = Simulator(net.gateways, net.devices, link=link)
        result = sim.run(capacity_burst(net.devices))
        causes = [classify_loss(tx, result) for tx in result.transmissions]
        assert causes.count(LossCause.CHANNEL_INTRA) >= 1

    def test_out_of_reach_is_other(self, plan_16, link):
        net = build_network(
            1, 1, 1, list(plan_16), seed=0, width_m=100, height_m=100
        )
        dev = net.devices[0]
        dev.position = type(dev.position)(50_000.0, 0.0)
        sim = Simulator(net.gateways, net.devices, link=link)
        result = sim.run([dev.transmit(0.0)])
        assert classify_loss(result.transmissions[0], result) is LossCause.OTHER


class TestBreakdown:
    def test_ratios_sum_to_one(self, overloaded_result):
        b = loss_breakdown(overloaded_result)
        total = sum(b.ratio(c) for c in LossCause)
        assert total == pytest.approx(1.0)

    def test_prr_matches_result(self, overloaded_result):
        b = loss_breakdown(overloaded_result)
        assert b.prr == pytest.approx(overloaded_result.prr())

    def test_empty_breakdown(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        b = loss_breakdown(sim.run([]))
        assert b.offered == 0
        assert b.prr == 0.0

    def test_as_dict_keys(self, overloaded_result):
        d = loss_breakdown(overloaded_result).as_dict()
        assert set(d) == {c.value for c in LossCause}


class TestThroughput:
    def test_counts_delivered_bytes(self, overloaded_result):
        tput = throughput_bps(overloaded_result, window_s=1.0)
        expected = overloaded_result.delivered_count() * 20 * 8
        assert tput == pytest.approx(expected)

    def test_rejects_bad_window(self, overloaded_result):
        with pytest.raises(ValueError):
            throughput_bps(overloaded_result, window_s=0.0)


class TestSpectrumUtilization:
    def test_cells_match_delivered(self, overloaded_result, grid_16):
        util = spectrum_utilization(overloaded_result, grid_16.channels())
        assert sum(util.values()) == overloaded_result.delivered_count()
        for (ch_idx, dr), count in util.items():
            assert 0 <= ch_idx < 8
            assert 0 <= dr < 6
            assert count >= 1


def _enum_keyed_counts(result, gateway_id=None):
    """The tally keyed by ``Outcome`` member that ``outcome_counts`` equals."""
    counts = Counter(
        rec.outcome
        for records in result.receptions.values()
        for rec in records
        if gateway_id is None or rec.gateway_id == gateway_id
    )
    return dict(sorted((outcome.value, n) for outcome, n in counts.items()))


class TestOutcomeCounts:
    def test_counts_every_record_and_each_gateway_alone(self, plan_16, link):
        net = build_network(
            1, 3, 12, list(plan_16), seed=0, width_m=400, height_m=400
        )
        result = Simulator(net.gateways, net.devices, link=link).run(
            capacity_burst(net.devices)
        )
        records = [r for recs in result.receptions.values() for r in recs]
        want = {}
        for r in records:
            want[r.outcome.value] = want.get(r.outcome.value, 0) + 1
        counts = outcome_counts(result)
        assert counts == want and list(counts) == sorted(want)
        total = 0
        for gw in net.gateways:
            mine = outcome_counts(result, gateway_id=gw.gateway_id)
            assert sum(mine.values()) == sum(
                r.gateway_id == gw.gateway_id for r in records
            )
            total += sum(mine.values())
        assert total == len(records) > 0
        assert outcome_counts(result, gateway_id=999) == {}

    def test_equals_the_enum_keyed_tally_batch_and_online(self, plan_16, link):
        net = build_network(
            1, 3, 12, list(plan_16), seed=0, width_m=400, height_m=400
        )
        burst = capacity_burst(net.devices)
        start = min(tx.start_s for tx in burst)
        plan = FaultPlan(
            seed=2,
            gateway_crashes=(GatewayCrash(time_s=start, gateway_id=1, down_s=10.0),),
            backhaul_faults=(BackhaulFault(gateway_id=2, drop_prob=0.5),),
        )
        sim = OnlineSimulator(net.gateways, net.devices, link=link)
        online = sim.run_online(burst, fault_plan=plan)
        assert {"gateway_offline", "backhaul_lost"} <= set(outcome_counts(online))
        gateway_ids = [None, 999] + [gw.gateway_id for gw in net.gateways]
        for result in (sim.run(burst), online):
            for gateway_id in gateway_ids:
                got = outcome_counts(result, gateway_id)
                want = _enum_keyed_counts(result, gateway_id)
                assert got == want and list(got) == list(want)


class TestServiceRatio:
    def test_matches_delivery(self, overloaded_result):
        expected = overloaded_result.delivered_count() / 20
        assert service_ratio(overloaded_result, 1) == pytest.approx(expected)

    def test_unknown_network(self, overloaded_result):
        assert service_ratio(overloaded_result, 42) == 0.0


class TestCollisionPartners:
    """Loss attribution's partner test over the reception kernel's scan."""

    def test_finds_co_cell_partner(self, plan_16):
        from repro.types import Transmission
        from repro.phy.lora import SpreadingFactor

        ch = list(plan_16)[0]
        a = Transmission(1, 1, ch, SpreadingFactor.SF8, 0.0, 20)
        b = Transmission(2, 2, ch, SpreadingFactor.SF8, 0.01, 20)
        assert _partner_networks(_build_time_index([a, b]), a) == [2]

    def test_orthogonal_sf_not_partner(self, plan_16):
        from repro.types import Transmission
        from repro.phy.lora import SpreadingFactor

        ch = list(plan_16)[0]
        a = Transmission(1, 1, ch, SpreadingFactor.SF8, 0.0, 20)
        b = Transmission(2, 2, ch, SpreadingFactor.SF9, 0.01, 20)
        assert _partner_networks(_build_time_index([a, b]), a) == []

    def test_disjoint_time_not_partner(self, plan_16):
        from repro.types import Transmission
        from repro.phy.lora import SpreadingFactor

        ch = list(plan_16)[0]
        a = Transmission(1, 1, ch, SpreadingFactor.SF8, 0.0, 20)
        b = Transmission(2, 2, ch, SpreadingFactor.SF8, 10.0, 20)
        assert _partner_networks(_build_time_index([a, b]), a) == []



class _BucketSfPartnerIndex:
    """Reference partner search on its own index keyed by (frequency
    bucket, SF), each key's bisect window sized by that key's longest
    airtime: the search loss attribution ran before it read the
    reception kernel's scan."""

    def __init__(self, transmissions):
        grouped = {}
        widest = 0.0
        for tx in transmissions:
            channel = tx.channel
            key = (int(channel.center_hz // INDEX_BUCKET_HZ), int(tx.sf))
            grouped.setdefault(key, []).append(
                (
                    tx, tx.start_s, tx.end_s, channel.low_hz,
                    channel.high_hz, channel.bandwidth_hz, tx.network_id,
                )
            )
            widest = max(widest, channel.bandwidth_hz)
        self._reach = bucket_reach(widest)
        self._buckets = {}
        for key, rows in grouped.items():
            rows.sort(key=lambda row: row[1])
            self._buckets[key] = (
                rows,
                [row[1] for row in rows],
                max(row[0].airtime_s for row in rows),
            )

    def interferer_networks(self, tx):
        channel = tx.channel
        me_start, me_end = tx.start_s, tx.end_s
        me_low, me_high = channel.low_hz, channel.high_hz
        me_bw = channel.bandwidth_hz
        center = int(channel.center_hz // INDEX_BUCKET_HZ)
        nets = []
        for bucket in range(center - self._reach, center + self._reach + 1):
            entry = self._buckets.get((bucket, int(tx.sf)))
            if entry is None:
                continue
            rows, starts, max_airtime = entry
            lo = bisect_left(starts, me_start - max_airtime)
            hi = bisect_right(starts, me_end)
            for other, start, end, low, high, bw, net in rows[lo:hi]:
                if other is tx:
                    continue
                if min(end, me_end) <= max(start, me_start):
                    continue
                overlap = min(high, me_high) - max(low, me_low)
                if overlap <= 0.0 or overlap / min(
                    bw, me_bw
                ) < DETECTION_MIN_OVERLAP:
                    continue
                nets.append(net)
        return nets


def _fig4b_style_result(seed, networks=3):
    """One Figure 4b point: ``networks`` homogeneous standard-LoRaWAN
    networks of 1,000 users each in the 1.6 MHz band."""
    grid = TESTBED_16.grid()
    width, height = TESTBED_AREA_M
    nets = []
    txs = []
    for k in range(networks):
        net = build_network(
            network_id=k + 1,
            num_gateways=3,
            num_nodes=DEVICES_PER_NETWORK,
            channels=grid.channels()[:8],
            seed=seed + 17 * k,
            gateway_id_base=100 * k,
            node_id_base=10_000 * k,
            width_m=width,
            height_m=height,
        )
        apply_standard_lorawan(net, grid, seed=seed + 17 * k)
        assign_tier_by_reach(net, spread_seed=seed + 17 * k)
        nets.append(net)
        txs.extend(
            emulated_traffic(
                net.devices,
                total_users=1000,
                mean_interval_s=USER_INTERVAL_B_S,
                window_s=WINDOW_B_S,
                seed=seed + 31 * k,
            )
        )
    txs.sort(key=lambda t: t.start_s)
    sim = Simulator(
        [gw for net in nets for gw in net.gateways],
        [dev for net in nets for dev in net.devices],
        link=LinkBudget(),
    )
    return sim.run(txs)


@pytest.mark.parametrize("seed", [0, 1])
def test_attribution_matches_the_bucket_sf_reference(seed):
    result = _fig4b_style_result(seed)
    index = _build_time_index(result.transmissions)
    reference = _BucketSfPartnerIndex(result.transmissions)
    channel = {LossCause.CHANNEL_INTRA, LossCause.CHANNEL_INTER}
    seen = Counter()
    for tx in result.transmissions:
        nets = reference.interferer_networks(tx)
        assert _partner_networks(index, tx) == nets
        cause = classify_loss(tx, result, index)
        if cause in channel:
            foreign = any(net != tx.network_id for net in nets)
            assert cause is (
                LossCause.CHANNEL_INTER if foreign else LossCause.CHANNEL_INTRA
            )
            assert classify_loss(tx, result) is cause  # its own index
        seen[cause] += 1
    assert seen[LossCause.CHANNEL_INTRA] and seen[LossCause.CHANNEL_INTER]
