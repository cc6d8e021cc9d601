"""Acceptance: the health observatory watches the chaos scenario.

Every injected fault must fire its alert rule inside the fault window
(gateway crash -> ``gateway_offline``, backhaul fault ->
``backhaul_loss``, Master outage -> ``master_unreachable``), the
monitor's status must flip away from ``ok`` after the crash, and a
replay of the run's own trace must reproduce the live monitor's
report: the event stream is the monitor's only input.
"""

import json

import pytest

from repro.experiments import run_chaos, run_disruption
from repro.experiments.chaos import CRASH_DOWN_S, CRASH_S, WINDOW_S
from repro.obs import observe
from repro.obs.health import HealthMonitor
from repro.obs.recorder import load_trace
from repro.tools.ascii_chart import render_dashboard
from repro.tools.cli import main


@pytest.fixture(scope="module")
def chaos_health(tmp_path_factory):
    path = tmp_path_factory.mktemp("health") / "chaos.jsonl"
    with observe(
        manifest={"experiment": "chaos", "seed": 0}, health=True
    ) as session:
        result = run_chaos(seed=0, fast=True)
    session.recorder.write_jsonl(str(path))
    return result, session.health, load_trace(str(path))


@pytest.fixture(scope="module")
def disruption_health():
    with observe(trace=True, metrics=False, health=True) as session:
        run_disruption(seed=0)
    return session.health, session.recorder.to_dicts()


def _alerts_by_rule(alerts):
    out = {}
    for alert in alerts:
        out.setdefault(alert["rule"], []).append(alert)
    return out


class TestChaosAlerts:
    def test_every_fault_fires_its_rule(self, chaos_health):
        _, monitor, _ = chaos_health
        rules = _alerts_by_rule(monitor.alerts())
        assert "gateway_offline" in rules
        assert "backhaul_loss" in rules
        assert "master_unreachable" in rules

    def test_crash_alert_fires_inside_the_fault_window(self, chaos_health):
        _, monitor, _ = chaos_health
        (crash,) = _alerts_by_rule(monitor.alerts())["gateway_offline"]
        assert crash["severity"] == "critical"
        assert CRASH_S <= crash["fired_s"] <= CRASH_S + CRASH_DOWN_S
        # At the crash instant, not at the next packet the gateway hears.
        assert crash["fired_s"] == CRASH_S
        # The outage heals once the EWMA decays after the reboot window.
        assert crash["resolved_s"] is not None
        assert CRASH_S + CRASH_DOWN_S <= crash["resolved_s"] <= WINDOW_S

    def test_backhaul_alert_fires_inside_its_window(self, chaos_health):
        _, monitor, _ = chaos_health
        alerts = _alerts_by_rule(monitor.alerts())["backhaul_loss"]
        assert any(
            CRASH_S <= a["fired_s"] <= CRASH_S + CRASH_DOWN_S for a in alerts
        )

    def test_run_result_is_independent_of_observation(self, chaos_health):
        observed, _, _ = chaos_health
        assert run_chaos(seed=0, fast=True) == observed

    def test_result_is_json_serializable(self, chaos_health):
        _, monitor, _ = chaos_health
        json.dumps(monitor.healthz())
        json.dumps(monitor.alerts())

    def test_same_seed_reproduces_alert_timeline(self):
        timelines = []
        for _ in range(2):
            with observe(trace=False, metrics=False, health=True) as session:
                run_chaos(seed=0, fast=True)
            timelines.append(session.health.alerts())
        assert timelines[0] == timelines[1]


class TestHealthzFlip:
    def test_healthz_not_ok_after_crash(self, chaos_health):
        _, monitor, _ = chaos_health
        assert monitor.healthz()["status"] != "ok"


class TestTraceReplay:
    def test_replay_reconstructs_live_alerts(
        self, chaos_health, disruption_health
    ):
        # The whole report, not just the alerts: every gateway's clock,
        # sample and outcome tally, here and in the disruption run's
        # fifteen gateways reconfigured mid-run.
        _, monitor, events = chaos_health
        for live, trace in ((monitor, events), disruption_health):
            assert HealthMonitor().replay(trace).report() == live.report()

    def test_trace_health_prints_the_live_monitors_dashboard(
        self, chaos_health, tmp_path, capsys
    ):
        _, monitor, events = chaos_health
        path = tmp_path / "chaos.jsonl"
        path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
        assert main(["trace", "health", str(path)]) == 0
        assert capsys.readouterr().out == render_dashboard(
            monitor.healthz(), monitor.alerts(), source=str(path)
        ) + "\n"

    def test_partial_replay_mid_crash_is_not_ok(self, chaos_health):
        _, _, events = chaos_health
        partial = [
            ev
            for ev in events
            if not isinstance(ev.get("t"), (int, float))
            or ev["t"] <= CRASH_S + 5.0
        ]
        monitor = HealthMonitor().replay(partial)
        assert monitor.healthz()["status"] != "ok"
        assert any(
            a["rule"] == "gateway_offline" and a["active"]
            for a in monitor.alerts()
        )
