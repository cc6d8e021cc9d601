"""Tests for the health dashboard (``repro.tools trace health``)."""

from repro.obs.health import HealthMonitor
from repro.tools.ascii_chart import render_dashboard

EVENTS = [
    {"seq": 0, "type": "manifest", "schema": 1},
    {"seq": 1, "type": "gw.lock_on", "t": 1.0, "gw": 0},
    {"seq": 2, "type": "decoder.grant", "t": 1.0, "gw": 0, "dec": 0, "until": 2.0},
    {
        "seq": 3,
        "type": "gw.reboot",
        "t": 30.0,
        "gw": 0,
        "outage": 8.0,
        "reason": "crash",
    },
]


class TestRenderDashboard:
    def test_renders_scores_table_and_alerts(self):
        monitor = HealthMonitor().replay(EVENTS)
        frame = render_dashboard(
            monitor.healthz(), monitor.alerts(), source="t.jsonl"
        )
        assert "health: CRITICAL" in frame
        assert "[t.jsonl]" in frame
        assert "gw0" in frame
        assert "gateway_offline" in frame
        assert "1 active" in frame

    def test_empty_healthz_renders_placeholder(self):
        frame = render_dashboard({"status": "ok", "gateways": {}})
        assert "(no gateway data yet)" in frame
