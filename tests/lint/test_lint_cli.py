"""CLI behaviour of ``python -m repro.tools lint``."""

import json
import os

import pytest

from repro.tools.cli import main

BAD_MODULE = (
    "import random\n"
    "def f() -> random.Random:\n"
    "    return random.Random(0)\n"
)

CLEAN_MODULE = (
    "import random\n"
    "def f(seed: int) -> random.Random:\n"
    "    return random.Random(seed)\n"
)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny repo tree the CLI can lint, with cwd inside it."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return pkg


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        (tree / "ok.py").write_text(CLEAN_MODULE)
        assert main(["lint", "src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_findings_exit_one(self, tree, capsys):
        (tree / "bad.py").write_text(BAD_MODULE)
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/bad.py:3" in out
        assert "DET001" in out

    def test_parse_error_exits_two(self, tree):
        (tree / "broken.py").write_text("def f(:\n")
        assert main(["lint", "src"]) == 2


class TestFormats:
    def test_json_format_is_machine_readable(self, tree, capsys):
        (tree / "bad.py").write_text(BAD_MODULE)
        assert main(["lint", "src", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 1
        assert data["by_rule"] == {"DET001": 1}
        (finding,) = data["findings"]
        assert finding["rule_id"] == "DET001"
        assert finding["fingerprint"]

    def test_list_rules(self, tree, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001",
            "DET002",
            "DET003",
            "OBS001",
            "API001",
            "UNIT001",
        ):
            assert rule_id in out


RACY_MODULE = (
    "import threading\n"
    "\n"
    "\n"
    "class Counter:\n"
    "    def __init__(self) -> None:\n"
    "        self._lock = threading.Lock()\n"
    "        self._n = 0\n"
    "\n"
    "    def bump(self) -> None:\n"
    "        with self._lock:\n"
    "            self._n += 1\n"
    "\n"
    "    def reset(self) -> None:\n"
    "        self._n = 0\n"
)


class TestDeepFlag:
    def test_deep_merges_whole_program_findings(self, tree, capsys):
        (tree / "server.py").write_text(RACY_MODULE)
        assert main(["lint", "src", "--deep"]) == 1
        out = capsys.readouterr().out
        assert "RACE001" in out
        assert "self._n" in out

    def test_without_deep_the_race_is_invisible(self, tree, capsys):
        (tree / "server.py").write_text(RACY_MODULE)
        assert main(["lint", "src"]) == 0

    def test_list_rules_marks_deep_rules(self, tree, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET010", "RACE001", "RACE002", "PERF001", "PERF002"):
            assert rule_id in out
        assert "[--deep]" in out


class TestOutputFormats:
    def test_github_format_emits_workflow_commands(self, tree, capsys):
        (tree / "bad.py").write_text(BAD_MODULE)
        assert main(["lint", "src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=src/repro/bad.py,line=3,")
        assert "title=DET001" in out

    def test_sarif_format_is_valid_json(self, tree, capsys):
        (tree / "bad.py").write_text(BAD_MODULE)
        assert main(["lint", "src", "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/bad.py"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "DET001" in rule_ids and "DET010" in rule_ids

    def test_sarif_clean_run_has_empty_results(self, tree, capsys):
        (tree / "ok.py").write_text(CLEAN_MODULE)
        assert main(["lint", "src", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []


def git(*argv, cwd):
    import subprocess

    subprocess.run(
        ["git", *argv],
        cwd=cwd,
        check=True,
        capture_output=True,
        env={
            **os.environ,
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.com",
        },
    )


class TestChangedFlag:
    def test_changed_restricts_reporting(self, tree, capsys, tmp_path):
        (tree / "old.py").write_text(BAD_MODULE)
        git("init", "-q", cwd=tmp_path)
        git("add", "-A", cwd=tmp_path)
        git("commit", "-qm", "seed", cwd=tmp_path)
        (tree / "fresh.py").write_text(BAD_MODULE)
        assert main(["lint", "src", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "old.py" not in out

    def test_changed_with_clean_diff_exits_zero(self, tree, capsys, tmp_path):
        (tree / "old.py").write_text(BAD_MODULE)
        git("init", "-q", cwd=tmp_path)
        git("add", "-A", cwd=tmp_path)
        git("commit", "-qm", "seed", cwd=tmp_path)
        assert main(["lint", "src", "--changed"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_changed_against_explicit_ref(self, tree, capsys, tmp_path):
        (tree / "old.py").write_text(BAD_MODULE)
        git("init", "-q", cwd=tmp_path)
        git("add", "-A", cwd=tmp_path)
        git("commit", "-qm", "seed", cwd=tmp_path)
        (tree / "fresh.py").write_text(BAD_MODULE)
        git("add", "-A", cwd=tmp_path)
        git("commit", "-qm", "second", cwd=tmp_path)
        assert main(["lint", "src", "--changed", "HEAD~1"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "old.py" not in out

    def test_without_git_falls_back_to_full_lint(self, tree, capsys):
        (tree / "bad.py").write_text(BAD_MODULE)
        assert main(["lint", "src", "--changed"]) == 1
        captured = capsys.readouterr()
        assert "bad.py" in captured.out
        assert "linting everything" in captured.err

    def test_changed_deep_still_sees_whole_program(self, tree, capsys, tmp_path):
        """--changed restricts reporting, not the deep analysis scope."""
        (tree / "server.py").write_text(RACY_MODULE)
        git("init", "-q", cwd=tmp_path)
        git("add", "-A", cwd=tmp_path)
        git("commit", "-qm", "seed", cwd=tmp_path)
        # Only an unrelated file changed: the race is not re-reported.
        (tree / "other.py").write_text(CLEAN_MODULE)
        assert main(["lint", "src", "--deep", "--changed"]) == 0
        capsys.readouterr()
        # Touch the racy file and it is.
        (tree / "server.py").write_text(RACY_MODULE + "\n# touched\n")
        assert main(["lint", "src", "--deep", "--changed"]) == 1
        assert "RACE001" in capsys.readouterr().out
