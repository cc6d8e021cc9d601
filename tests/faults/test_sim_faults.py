"""Fault injection in the online engine and retransmission recovery."""

import pytest

from repro.faults import (
    BackhaulFault,
    DecoderDegradation,
    FaultPlan,
    GatewayCrash,
    RetransmitPolicy,
)
from repro.gateway.gateway import Outcome
from repro.phy.lora import DataRate
from repro.sim.engine import OFFLINE_OUTCOME, OnlineSimulator
from repro.sim.metrics import outcome_counts, retry_delivery_breakdown
from repro.sim.resilience import run_with_retransmissions
from repro.sim.scenario import build_network
from repro.sim.simulator import Simulator, tx_key


@pytest.fixture
def net(grid_16):
    """One gateway, eight nodes on distinct channels at DR5 (short airtime)."""
    channels = grid_16.channels()[:8]
    network = build_network(
        1, 1, 8, channels, seed=3, width_m=200.0, height_m=200.0
    )
    for i, dev in enumerate(network.devices):
        dev.apply_config(channel=channels[i % len(channels)], dr=DataRate.DR5)
        dev.confirmed = True
    return network


def _sim(net, link):
    return OnlineSimulator(net.gateways, net.devices, link=link)


def _records(result, tx):
    return result.receptions[tx_key(tx)]


class TestGatewayCrash:
    def test_lockons_during_downtime_are_lost(self, net, link):
        dev = net.devices[0]
        during = dev.transmit(12.0)
        after = dev.transmit(20.0)
        plan = FaultPlan(
            gateway_crashes=(
                GatewayCrash(time_s=10.0, gateway_id=0, down_s=5.0),
            )
        )
        result = _sim(net, link).run_online([during, after], fault_plan=plan)
        assert _records(result, during)[0].outcome is OFFLINE_OUTCOME
        assert _records(result, after)[0].outcome is Outcome.RECEIVED

    def test_inflight_reception_aborted_with_fields_preserved(self, net, link):
        """The crash rewrites the outcome but keeps the reception's facts."""
        victim_dev, later_dev = net.devices[0], net.devices[1]
        victim = victim_dev.transmit(10.0)
        crash_s = victim.start_s + victim.airtime_s / 2.0
        # A later packet advances the timeline past the crash instant.
        later = later_dev.transmit(victim.end_s + 10.0)
        plan = FaultPlan(
            gateway_crashes=(
                GatewayCrash(time_s=crash_s, gateway_id=0, down_s=1.0),
            )
        )
        result = _sim(net, link).run_online([victim, later], fault_plan=plan)
        rec = _records(result, victim)[0]
        assert rec.outcome is Outcome.GATEWAY_OFFLINE
        assert rec.rx_channel is not None
        assert rec.snr_db is not None
        assert rec.lock_on_s is not None
        assert not result.delivered(victim)
        assert result.delivered(later)

    def test_no_crash_without_plan(self, net, link):
        tx = net.devices[0].transmit(12.0)
        result = _sim(net, link).run_online([tx])
        assert _records(result, tx)[0].outcome is Outcome.RECEIVED


class TestBackhaul:
    def _plan(self, seed):
        return FaultPlan(
            seed=seed,
            backhaul_faults=(
                BackhaulFault(
                    drop_prob=0.5, delay_mean_s=0.1, delay_jitter_s=0.05
                ),
            ),
        )

    def _traffic(self, net):
        return [
            dev.transmit(1.0 + 2.0 * i) for i, dev in enumerate(net.devices)
        ]

    def test_drops_and_delays_applied(self, net, link):
        result = _sim(net, link).run_online(
            self._traffic(net), fault_plan=self._plan(seed=1)
        )
        outcomes = [recs[0] for recs in result.receptions.values()]
        lost = [r for r in outcomes if r.outcome is Outcome.BACKHAUL_LOST]
        arrived = [r for r in outcomes if r.outcome is Outcome.RECEIVED]
        assert lost, "with drop_prob=0.5 over 8 packets some should drop"
        assert arrived, "and some should survive"
        for rec in arrived:
            assert 0.1 <= rec.backhaul_delay_s <= 0.15
        for rec in lost:
            assert not result.delivered(rec.transmission)

    def test_same_seed_reproduces_same_fates(self, net, link):
        def run():
            result = _sim(net, link).run_online(
                self._traffic(net), fault_plan=self._plan(seed=1)
            )
            return [
                (r.outcome.value, r.backhaul_delay_s)
                for recs in result.receptions.values()
                for r in recs
            ]

        assert run() == run()

    def test_different_seed_changes_fates(self, net, link):
        def fates(seed):
            result = _sim(net, link).run_online(
                self._traffic(net), fault_plan=self._plan(seed=seed)
            )
            return [
                r.backhaul_delay_s
                for recs in result.receptions.values()
                for r in recs
            ]

        assert fates(1) != fates(2)


class TestDecoderDegradation:
    def test_shrunk_pool_rejects_overlap(self, net, link):
        a = net.devices[0].transmit(30.0)
        b = net.devices[1].transmit(30.0)
        plan = FaultPlan(
            decoder_degradations=(
                DecoderDegradation(time_s=20.0, gateway_id=0, decoders=1),
            )
        )
        result = _sim(net, link).run_online([a, b], fault_plan=plan)
        outcomes = sorted(
            _records(result, tx)[0].outcome.value for tx in (a, b)
        )
        assert outcomes == ["no_decoder", "received"]

    def test_pool_restored_after_window(self, net, link):
        a = net.devices[0].transmit(50.0)
        b = net.devices[1].transmit(50.0)
        plan = FaultPlan(
            decoder_degradations=(
                DecoderDegradation(
                    time_s=20.0, gateway_id=0, decoders=1, duration_s=20.0
                ),
            )
        )
        result = _sim(net, link).run_online([a, b], fault_plan=plan)
        for tx in (a, b):
            assert _records(result, tx)[0].outcome is Outcome.RECEIVED

    def test_degraded_pool_does_not_leak_into_later_runs(self, net, link):
        """A permanent degradation ends with its run: the next window
        starts from the model's full decoder count."""
        burst = [dev.transmit(5.0) for dev in net.devices]
        batch = Simulator(net.gateways, net.devices, link=link)
        before = outcome_counts(batch.run(burst))
        assert before == {"received": len(burst)}
        plan = FaultPlan(
            decoder_degradations=(
                DecoderDegradation(time_s=1.0, gateway_id=0, decoders=1),
            )
        )
        degraded = _sim(net, link).run_online(burst, fault_plan=plan)
        assert outcome_counts(degraded)["no_decoder"] == len(burst) - 1
        assert outcome_counts(batch.run(burst)) == before
        gw = net.gateways[0]
        assert gw.pool.capacity == gw.model.decoders


class TestRetransmission:
    def test_confirmed_frame_recovered_after_crash(self, net, link):
        dev = net.devices[0]
        tx = dev.transmit(10.2)  # lands squarely in the downtime
        plan = FaultPlan(
            seed=5,
            gateway_crashes=(
                GatewayCrash(time_s=10.0, gateway_id=0, down_s=3.0),
            ),
        )
        res = run_with_retransmissions(
            _sim(net, link),
            [tx],
            fault_plan=plan,
            policy=RetransmitPolicy(max_retries=3),
            window_s=60.0,
        )
        counts = res.delivery_counts()
        assert counts == {
            "first_attempt": 0,
            "after_retry": 1,
            "unrecovered": 0,
        }
        assert res.retransmissions
        assert all(
            t.key() == tx.key() and t.attempt > 0
            for t in res.retransmissions
        )

    def test_unconfirmed_frames_are_not_retried(self, net, link):
        dev = net.devices[0]
        dev.confirmed = False
        tx = dev.transmit(10.2)
        plan = FaultPlan(
            gateway_crashes=(
                GatewayCrash(time_s=10.0, gateway_id=0, down_s=3.0),
            )
        )
        res = run_with_retransmissions(
            _sim(net, link), [tx], fault_plan=plan, window_s=60.0
        )
        assert res.retransmissions == []
        assert not res.result.delivered(tx)

    def test_budget_exhaustion_leaves_frame_unrecovered(self, net, link):
        dev = net.devices[0]
        tx = dev.transmit(10.2)
        # The gateway never comes back inside the window.
        plan = FaultPlan(
            seed=5,
            gateway_crashes=(
                GatewayCrash(time_s=10.0, gateway_id=0, down_s=500.0),
            ),
        )
        res = run_with_retransmissions(
            _sim(net, link),
            [tx],
            fault_plan=plan,
            policy=RetransmitPolicy(max_retries=2),
            window_s=60.0,
        )
        assert res.delivery_counts()["unrecovered"] == 1
        assert len(res.retransmissions) <= 2

    def test_run_deterministic_under_plan_seed(self, net, link):
        plan = FaultPlan(
            seed=11,
            gateway_crashes=(
                GatewayCrash(time_s=10.0, gateway_id=0, down_s=6.0),
            ),
            backhaul_faults=(
                BackhaulFault(start_s=20.0, end_s=40.0, drop_prob=0.4),
            ),
        )

        def run():
            traffic = [
                dev.transmit(2.0 + 3.0 * i)
                for i, dev in enumerate(net.devices)
            ]
            res = run_with_retransmissions(
                _sim(net, link), traffic, fault_plan=plan, window_s=60.0
            )
            return (
                outcome_counts(res.result),
                retry_delivery_breakdown(res.result),
                len(res.retransmissions),
            )

        first = run()
        for dev in net.devices:  # reset frame counters between runs
            dev._counter = 0
        assert run() == first
