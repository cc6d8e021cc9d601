"""End-to-end tests for ``repro.tools profile``."""

import json

import pytest

from repro.tools.cli import main


class TestProfileCli:
    def test_text_report(self, capsys):
        assert main(["profile", "fig2a", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: fig2a (seed 0)" in out
        assert "events/s" in out
        assert "gw.decode" in out
        assert "own_ms" in out  # hotspot table

    def test_json_report_to_stdout(self, capsys):
        assert main(["profile", "fig2a", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig2a"
        assert payload["seed"] == 0
        report = payload["report"]
        assert report["deterministic"]["events"] > 0
        assert report["wall"]["events_per_s"] > 0

    def test_json_report_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "perf.json")
        assert main(["profile", "fig2a", "--json", path]) == 0
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["report"]["wall"]["hotspots"]

    def test_flags(self, capsys):
        assert (
            main(
                [
                    "profile",
                    "fig2a",
                    "--seed",
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
        assert payload["seed"] == 1
        report = payload["report"]
        assert report["deterministic"]["sample_every"] == 4
        assert "hotspots" not in report["wall"]
        assert report["wall"]["memory_peak_kb"] is not None

    def test_unknown_experiment_rejected(self, capsys):
        # A spec path is no longer a profile target: only registry names.
        for target in ("nope", "scenarios/chaos.yaml"):
            with pytest.raises(SystemExit) as exc:
                main(["profile", target])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_chaos_profiles_the_upgrade_path(self, capsys):
        # The phases CI's profile-smoke job requires of `profile chaos`.
        assert main(["profile", "chaos", "--no-cprofile", "--json", "-"]) == 0
        phases = json.loads(capsys.readouterr().out)["report"][
            "deterministic"
        ]["phases"]
        assert phases["core.plan"] == {"calls": 1, "items": 24}
        assert phases["sim.retransmit"] == {"calls": 2, "items": 11}
        for phase in ("upgrade.sync", "upgrade.distribute", "upgrade.reboot"):
            assert phases[phase]["calls"] == 1
