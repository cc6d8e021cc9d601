"""Cross-checks between instrumented hot paths and their results.

Runs the batch and online simulators inside an observability session
and verifies that the emitted events and metric counters agree with the
returned reception records — the invariants the trace loader relies on.
"""

from dataclasses import replace

import pytest

from repro.gateway.gateway import Outcome
from repro.node.traffic import capacity_burst
from repro.obs import observe
from repro.obs.events import EventType
from repro.sim.engine import OnlineSimulator, Reconfiguration
from repro.sim.scenario import assign_orthogonal_combos, build_network
from repro.sim.simulator import Simulator


def _outcomes(result):
    counts = {}
    for recs in result.receptions.values():
        for r in recs:
            counts[r.outcome.value] = counts.get(r.outcome.value, 0) + 1
    return counts


class TestBatchInstrumentation:
    def test_events_match_records(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with observe(spans=False) as session:
            result = sim.run(txs)
        counts = session.event_counts()
        assert counts["sim.run_start"] == 1
        assert counts["sim.run_end"] == 1
        # One reception event per record; grants+rejects == lock-ons.
        total_records = sum(len(r) for r in result.receptions.values())
        assert counts["gw.reception"] == total_records
        assert counts["gw.lock_on"] == (
            counts.get("decoder.grant", 0) + counts.get("decoder.reject", 0)
        )
        rejected = _outcomes(result).get("no_decoder", 0)
        assert counts.get("decoder.reject", 0) == rejected

    def test_metrics_match_records(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with observe(trace=False, spans=False) as session:
            result = sim.run(txs)
        snap = session.metrics.to_json()
        metric_outcomes = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["repro_outcomes_total"]["series"]
        }
        assert metric_outcomes == {
            k: float(v) for k, v in _outcomes(result).items()
        }

    def test_spans_recorded(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with observe(trace=False, metrics=False) as session:
            sim.run(txs)
        summary = session.spans.flame_summary()
        assert "sim.run" in summary
        assert summary["sim.run/gateway"]["count"] == len(
            compact_network.gateways
        )

    def test_admission_follows_its_lock_on(self, plan_16, link):
        """Each packet's grant or reject comes right after its lock-on,
        on every gateway; only the pool's reclaims may come between."""
        net = build_network(
            network_id=1,
            num_gateways=2,
            num_nodes=20,
            channels=list(plan_16),
            seed=1,
            width_m=200.0,
            height_m=200.0,
        )
        assign_orthogonal_combos(net.devices, list(plan_16))
        burst = capacity_burst(net.devices)
        later = [replace(tx, start_s=tx.start_s + 10.0) for tx in burst]
        txs = (burst + later)[::-1]  # input order is not lock-on order
        with observe(metrics=False, spans=False) as session:
            Simulator(net.gateways, net.devices, link=link).run(txs)
        events = session.recorder.to_dicts()
        seen = set()
        for k, ev in enumerate(events):
            if ev["type"] not in ("decoder.grant", "decoder.reject"):
                continue
            j = k - 1
            while events[j]["type"] == "decoder.reclaim":
                j -= 1
            lock_on = events[j]
            assert lock_on["type"] == "gw.lock_on", (ev, lock_on)
            for key in ("gw", "net", "node", "ctr", "att", "t"):
                assert lock_on[key] == ev[key], (ev, lock_on)
            seen.add((ev["gw"], ev["type"], events[k - 1]["type"]))
        counts = session.event_counts()
        assert counts["decoder.grant"] + counts["decoder.reject"] == counts[
            "gw.lock_on"
        ]
        assert {gw for gw, _, _ in seen} == {g.gateway_id for g in net.gateways}
        assert {kind for _, kind, _ in seen} == {
            "decoder.grant",
            "decoder.reject",
        }
        assert any(prev == "decoder.reclaim" for _, _, prev in seen)
        # Receptions follow the whole timeline, in the same packet order.
        packet = lambda ev: (ev["net"], ev["node"], ev["ctr"], ev["att"])
        for gw in net.gateways:
            mine = [ev for ev in events if ev.get("gw") == gw.gateway_id]
            locked = [packet(ev) for ev in mine if ev["type"] == "gw.lock_on"]
            fates = [ev for ev in mine if ev["type"] == "gw.reception"]
            first_fate = mine.index(fates[0])
            assert all(ev["type"] == "gw.reception" for ev in mine[first_fate:])
            assert [
                packet(ev) for ev in fates if packet(ev) in set(locked)
            ] == locked

    def test_no_events_without_session(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        # Simply must not raise: every hook no-ops when disabled.
        sim.run(capacity_burst(compact_network.devices))


class TestOnlineInstrumentation:
    def test_reboot_and_final_outcomes(self, compact_network, link):
        sim = OnlineSimulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        gw = compact_network.gateways[0]
        reconf = Reconfiguration(
            time_s=0.1,
            gateway_id=gw.gateway_id,
            channels=tuple(gw.channels),
            outage_s=5.0,
        )
        with observe(spans=False) as session:
            result = sim.run_online(txs, [reconf])
        counts = session.event_counts()
        assert counts["gw.reboot"] == 1
        reboot = next(
            e for e in session.recorder.events if e.etype == EventType.GW_REBOOT
        )
        assert reboot.fields["reason"] == "reconfig"
        assert reboot.t == 0.1
        # Reception events carry the *final* outcome (post-reboot
        # mutation), so offline counts agree with the records.
        offline_events = sum(
            1
            for e in session.recorder.events
            if e.etype == EventType.GW_RECEPTION
            and e.fields["outcome"] == Outcome.GATEWAY_OFFLINE.value
        )
        assert offline_events == _outcomes(result).get("gateway_offline", 0)
        assert offline_events > 0

    def test_run_start_says_which_simulator_ran(self, compact_network, link):
        """``sim.run_start`` and the run span name the entry point, even
        for an online run with nothing on its timeline."""
        sim = OnlineSimulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with observe(metrics=False) as session:
            sim.run(txs)
            sim.run_online(txs)
        starts = [
            e.fields["online"]
            for e in session.recorder.events
            if e.etype == EventType.SIM_RUN_START
        ]
        assert starts == [False, True]
        summary = session.spans.flame_summary()
        assert summary["sim.run"]["count"] == 1
        assert summary["sim.run_online"]["count"] == 1
