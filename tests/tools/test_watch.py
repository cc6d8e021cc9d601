"""Tests for the live health dashboard (``repro.tools watch``)."""

import io
import json

from repro.tools.watch import TraceFollower, render_dashboard, watch

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


def _append(path, events, partial=""):
    with open(path, "a") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")
        if partial:
            fh.write(partial)


class TestTraceFollower:
    def test_incremental_polling(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _append(path, EVENTS[:2])
        follower = TraceFollower(str(path))
        assert follower.poll() == 1  # manifest skipped
        _append(path, EVENTS[2:])
        assert follower.poll() == 2
        assert follower.poll() == 0  # nothing new
        assert follower.healthz()["status"] == "critical"
        assert any(a["rule"] == "gateway_offline" for a in follower.alerts())

    def test_torn_line_is_held_until_complete(self, tmp_path):
        path = tmp_path / "t.jsonl"
        line = json.dumps(EVENTS[1])
        _append(path, [EVENTS[0]], partial=line[:10])
        follower = TraceFollower(str(path))
        assert follower.poll() == 0  # partial line buffered, not parsed
        _append(path, [], partial=line[10:] + "\n")
        assert follower.poll() == 1

    def test_garbage_line_is_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            fh.write("{not json}\n")
            fh.write(json.dumps(EVENTS[1]) + "\n")
        assert TraceFollower(str(path)).poll() == 1

    def test_missing_file_polls_zero(self, tmp_path):
        assert TraceFollower(str(tmp_path / "absent.jsonl")).poll() == 0


class TestRenderDashboard:
    def test_renders_scores_table_and_alerts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _append(path, EVENTS)
        follower = TraceFollower(str(path))
        follower.poll()
        frame = render_dashboard(
            follower.healthz(), follower.alerts(), source="t.jsonl"
        )
        assert "health: CRITICAL" in frame
        assert "[t.jsonl]" in frame
        assert "gw0" in frame
        assert "gateway_offline" in frame
        assert "1 active" in frame

    def test_empty_healthz_renders_placeholder(self):
        frame = render_dashboard({"status": "ok", "gateways": {}})
        assert "(no gateway data yet)" in frame


class TestWatchLoop:
    def test_single_frame_from_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _append(path, EVENTS)
        out = io.StringIO()
        code = watch(trace_path=str(path), frames=1, out=out)
        assert code == 0
        assert "health: CRITICAL" in out.getvalue()

    def test_requires_exactly_one_source(self, capsys):
        assert watch() == 2
        assert "--trace" in capsys.readouterr().err
