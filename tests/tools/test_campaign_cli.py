"""End-to-end CLI tests for ``repro.tools campaign``."""

import json
import os

from repro.tools.cli import main

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "scenarios")
SMOKE = os.path.join(SPEC_DIR, "ci-smoke.yaml")


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCampaignCli:
    def test_run_status_report_diff(self, tmp_path, capsys):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        code, summary = _run(
            ["campaign", "run", SMOKE, "--out", d1, "--jobs", "2"], capsys
        )
        assert code == 0
        assert summary["total"] == 4 and not summary["failed"]

        code, _ = _run(["campaign", "run", SMOKE, "--out", d2], capsys)
        assert code == 0

        code, status = _run(["campaign", "status", d1], capsys)
        assert code == 0
        assert status["completed"] == 4 and status["pending"] == 0

        code, report = _run(["campaign", "report", d1], capsys)
        assert code == 0
        assert len(report["rows"]) == 4
        assert report["aggregates"]["offered"]["max"] == 32.0

        code, diff = _run(
            ["campaign", "diff", d1, d2, "--rel-tol", "0", "--abs-tol", "0"],
            capsys,
        )
        assert code == 0
        assert diff["status"] == "pass"

    def test_resume_skips_done_runs(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        _run(["campaign", "run", SMOKE, "--out", out], capsys)
        code, summary = _run(["campaign", "run", SMOKE, "--out", out], capsys)
        assert code == 0
        assert summary["skipped"] == 4 and summary["executed"] == []

    def test_bad_spec_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("traffic:\n  payload_byte: 1\n")
        code = main(["campaign", "run", str(bad), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 2

    def test_enum_typo_is_exit_2_before_any_run(self, tmp_path, capsys):
        bad = tmp_path / "typo.yaml"
        bad.write_text(
            "run: {kind: load}\n"
            "assignment: {kind: standrad}\n"
            "traffic: {window_s: 2.0}\n"
            "sweep:\n"
            "  traffic.users: [10, 20, 30]\n"
        )
        out = tmp_path / "o"
        code = main(["campaign", "run", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "assignment.kind: unknown kind 'standrad'" in err
        assert not out.exists()

    def test_missing_dir_is_exit_2(self, tmp_path, capsys):
        code = main(["campaign", "status", str(tmp_path / "nope")])
        capsys.readouterr()
        assert code == 2

    def test_json_output_file(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        path = str(tmp_path / "summary.json")
        code = main(["campaign", "run", SMOKE, "--out", out, "--json", path])
        capsys.readouterr()
        assert code == 0
        with open(path) as fh:
            assert json.load(fh)["total"] == 4
