"""End-to-end tests for ``repro.tools profile`` and the fleet views."""

import json
import os

from repro.campaign import CampaignStore
from repro.obs.manifest import utc_now_iso, wall_now_s
from repro.tools.cli import main
from repro.tools.watch import render_fleet

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "scenarios")
SMOKE = os.path.join(SPEC_DIR, "ci-smoke.yaml")


class TestProfileCli:
    def test_text_report(self, capsys):
        assert main(["profile", SMOKE, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: ci-smoke run" in out
        assert "events/s" in out
        assert "gw.decode" in out
        assert "own_ms" in out  # hotspot table

    def test_json_report_to_stdout(self, capsys):
        assert main(["profile", SMOKE, "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "ci-smoke"
        assert payload["run_index"] == 0
        report = payload["report"]
        assert report["deterministic"]["events"] > 0
        assert report["wall"]["events_per_s"] > 0

    def test_json_report_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "perf.json")
        assert main(["profile", SMOKE, "--json", path]) == 0
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["report"]["wall"]["hotspots"]

    def test_flags(self, capsys):
        assert (
            main(
                [
                    "profile",
                    SMOKE,
                    "--run-index",
                    "1",
                    "--sample-every",
                    "4",
                    "--no-cprofile",
                    "--no-warmup",
                    "--memory",
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_index"] == 1
        report = payload["report"]
        assert report["deterministic"]["sample_every"] == 4
        assert "hotspots" not in report["wall"]
        assert report["wall"]["memory_peak_kb"] is not None

    def test_bad_spec_and_bad_index(self, capsys):
        assert main(["profile", "/nonexistent.yaml"]) == 2
        assert "profile:" in capsys.readouterr().err
        assert main(["profile", SMOKE, "--run-index", "99"]) == 2
        assert "out of range" in capsys.readouterr().err


def _plant_heartbeat(out_dir, worker="w1", stale=False):
    store = CampaignStore(out_dir)
    store.write_heartbeat(
        {
            "schema": 1,
            "worker": worker,
            "pid": 7,
            "campaign": "ci-smoke",
            "runs_done": 3,
            "busy_wall_s": 1.5,
            "last_run_id": "0000-abc",
            "last_index": 0,
            "last_wall_s": 0.5,
            "last_events": 600,
            "last_eps": 1200.0,
            "updated_at": utc_now_iso(),
            "updated_wall_s": wall_now_s() - (9999 if stale else 0),
        }
    )


class TestLiveStatus:
    def test_live_text_view(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["campaign", "run", SMOKE, "--out", out]) == 0
        capsys.readouterr()
        _plant_heartbeat(out)
        assert main(["campaign", "status", out, "--live"]) == 0
        text = capsys.readouterr().out
        assert "campaign ci-smoke: 4/4 done" in text
        assert "+w1" in text
        assert "1,200" in text  # last_eps column
        assert "fleet: 1/1 workers active" in text

    def test_live_json_view(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["campaign", "run", SMOKE, "--out", out]) == 0
        capsys.readouterr()
        path = str(tmp_path / "fleet.json")
        assert main(["campaign", "status", out, "--live", "--json", path]) == 0
        with open(path) as fh:
            status = json.load(fh)
        assert status["fleet"]["workers"] == 0

    def test_watch_campaign_single_frame(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["campaign", "run", SMOKE, "--out", out]) == 0
        capsys.readouterr()
        _plant_heartbeat(out, stale=True)
        assert main(["watch", "--campaign", out, "--once"]) == 0
        text = capsys.readouterr().out
        assert "~w1" in text  # stale marker
        assert "ETA" in text

    def test_watch_campaign_missing_dir(self, tmp_path, capsys):
        code = main(["watch", "--campaign", str(tmp_path / "nope"), "--once"])
        assert code == 1
        assert "watch:" in capsys.readouterr().err


class TestRenderFleet:
    def test_pure_renderer_handles_missing_fields(self):
        out = render_fleet(
            {
                "name": "x",
                "total": 10,
                "completed": 4,
                "pending": 6,
                "workers": [
                    {"worker": "w1", "runs_done": 4, "stale": False},
                ],
                "fleet": {
                    "workers": 1,
                    "active": 1,
                    "runs_done": 4,
                    "mean_run_wall_s": None,
                    "eta_s": None,
                },
            }
        )
        assert "campaign x: 4/10 done, 6 pending" in out
        assert "40%" in out
        assert "ETA ?" in out

    def test_eta_formatting(self):
        base = {
            "name": "x", "total": 1, "completed": 0, "pending": 1,
            "workers": [], "fleet": {"workers": 0, "active": 0,
                                     "runs_done": 0, "mean_run_wall_s": 1.0},
        }
        short = render_fleet({**base, "fleet": {**base["fleet"], "eta_s": 45.0}})
        long = render_fleet({**base, "fleet": {**base["fleet"], "eta_s": 300.0}})
        assert "ETA 45s" in short
        assert "ETA 5.0min" in long
