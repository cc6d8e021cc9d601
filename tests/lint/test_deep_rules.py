"""Fixture tests for the whole-program (``--deep``) rules.

Deep rules need a program *tree*, not a single file, so fixtures under
``tests/lint/fixtures/deep`` (excluded from repo-wide lint walks like
all fixtures) are staged into a temporary ``src/repro`` layout and
analyzed with an explicit per-scenario config.  The RACE001 pair
reproduces the shape of the fixed ``dropped_requests`` counter race.
"""

import os
import shutil

import pytest

from repro.lint import LintConfig, run_deep
from repro.lint.program import build_program

DEEP_FIXTURES = os.path.join(
    os.path.dirname(__file__), "fixtures", "deep"
)

# No wall-clock exemptions, no roots: lock rules only.
LOCK_CONFIG = LintConfig(
    wall_clock_modules=(), wall_clock_sites=(), pure_roots=()
)
ENGINE_CONFIG = LintConfig(
    wall_clock_modules=("src/repro/telem.py",),
    wall_clock_sites=(),
    pure_roots=("repro.engine.run_loop",),
)
HOT_CONFIG = LintConfig(
    wall_clock_modules=(),
    wall_clock_sites=(),
    pure_roots=("repro.hotmod.hot",),
)


def stage(tmp_path, mapping):
    """Copy deep fixtures into a synthetic src/repro tree."""
    for fixture_name, rel in mapping.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(
            os.path.join(DEEP_FIXTURES, fixture_name), target
        )
    init = tmp_path / "src" / "repro" / "__init__.py"
    if not init.exists():
        init.write_text("")
    return str(tmp_path)


class TestDet010:
    def test_purity_violation_reports_the_chain(self, tmp_path):
        root = stage(
            tmp_path,
            {
                "det010_fail.py": "src/repro/engine.py",
                "det010_fail_clock.py": "src/repro/clock.py",
            },
        )
        report = run_deep(["src"], root=root, config=ENGINE_CONFIG)
        assert report.parse_errors == []
        assert [f.rule_id for f in report.findings] == ["DET010"]
        (finding,) = report.findings
        assert finding.path == "src/repro/clock.py"
        assert "wall-clock" in finding.message
        assert "time.time()" in finding.message
        # The offending call chain is rendered root-first.
        assert (
            "engine.run_loop -> engine.step -> clock.stamp"
            in finding.message
        )

    def test_clean_tree_with_telemetry_boundary(self, tmp_path):
        root = stage(
            tmp_path,
            {
                "det010_pass.py": "src/repro/engine.py",
                "det010_pass_clock.py": "src/repro/clock.py",
                "det010_pass_telem.py": "src/repro/telem.py",
            },
        )
        report = run_deep(["src"], root=root, config=ENGINE_CONFIG)
        assert report.parse_errors == []
        assert report.findings == []

    def test_boundary_module_is_required_for_cleanliness(self, tmp_path):
        """Without the telemetry exemption the probe's clock reads fire."""
        root = stage(
            tmp_path,
            {
                "det010_pass.py": "src/repro/engine.py",
                "det010_pass_clock.py": "src/repro/clock.py",
                "det010_pass_telem.py": "src/repro/telem.py",
            },
        )
        config = LintConfig(
            wall_clock_modules=(),
            wall_clock_sites=(),
            pure_roots=("repro.engine.run_loop",),
        )
        report = run_deep(["src"], root=root, config=config)
        assert {f.rule_id for f in report.findings} == {"DET010"}
        assert {f.path for f in report.findings} == {"src/repro/telem.py"}

    def test_root_naming_no_function_is_reported(self, tmp_path):
        """A renamed root must not silently drop out of the pass; a root
        outside the linted tree is not this run's to judge."""
        root = stage(
            tmp_path,
            {
                "det010_pass.py": "src/repro/engine.py",
                "det010_pass_clock.py": "src/repro/clock.py",
                "det010_pass_telem.py": "src/repro/telem.py",
            },
        )
        config = LintConfig(
            wall_clock_modules=("src/repro/telem.py",),
            wall_clock_sites=(),
            pure_roots=(
                "repro.engine.run_loop",
                "repro.engine.Engine.run_loop",
                "repro.elsewhere.run_loop",
            ),
        )
        report = run_deep(["src"], root=root, config=config)
        assert report.parse_errors == []
        (finding,) = report.findings
        assert finding.rule_id == "DET010"
        assert (finding.path, finding.line) == ("src/repro/engine.py", 1)
        assert "engine.Engine.run_loop names no function" in finding.message


class TestRace001:
    def test_dropped_requests_race_shape_is_caught(self, tmp_path):
        root = stage(
            tmp_path, {"race001_fail.py": "src/repro/server.py"}
        )
        report = run_deep(["src"], root=root, config=LOCK_CONFIG)
        assert report.parse_errors == []
        assert [f.rule_id for f in report.findings] == ["RACE001"]
        (finding,) = report.findings
        assert finding.path == "src/repro/server.py"
        assert "self._dropped" in finding.message
        assert "self._lock" in finding.message
        # Anchored at the unlocked increment in reap_idle.
        with open(
            os.path.join(DEEP_FIXTURES, "race001_fail.py")
        ) as fh:
            lines = fh.read().splitlines()
        assert "self._dropped += 1" in lines[finding.line - 1]
        assert "BUG" in lines[finding.line - 2]

    def test_disciplined_counterpart_is_clean(self, tmp_path):
        root = stage(
            tmp_path, {"race001_pass.py": "src/repro/server.py"}
        )
        report = run_deep(["src"], root=root, config=LOCK_CONFIG)
        assert report.parse_errors == []
        assert report.findings == []

    def test_acquire_then_try_finally_release_holds_the_lock(self, tmp_path):
        """Only the ``try`` whose ``finally`` releases the lock is held."""
        source = (
            "import threading\n\n\n"
            "class Server:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "        self._seen = 0\n\n"
            "    def guarded(self) -> None:\n"
            "        with self._lock:\n"
            "            self._seen += 1\n\n"
            "    def fast(self) -> None:\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self._seen += 1\n"
            "        finally:\n"
            "            self._lock.release()\n\n"
            "    def late(self) -> None:\n"
            "        try:\n"
            "            pass\n"
            "        finally:\n"
            "            print()\n"
            "        self._seen += 1  # not held\n"
        )
        module = tmp_path / "src" / "repro" / "server.py"
        module.parent.mkdir(parents=True)
        module.write_text(source)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        report = run_deep(["src"], root=str(tmp_path), config=LOCK_CONFIG)
        assert report.parse_errors == []
        (finding,) = report.findings
        assert finding.rule_id == "RACE001"
        assert source.splitlines()[finding.line - 1].endswith("# not held")


class TestRace002:
    def test_nested_acquisition_hazards(self, tmp_path):
        root = stage(
            tmp_path, {"race002_fail.py": "src/repro/pipeline.py"}
        )
        report = run_deep(["src"], root=root, config=LOCK_CONFIG)
        assert report.parse_errors == []
        assert [f.rule_id for f in report.findings] == [
            "RACE002",
            "RACE002",
        ]
        messages = sorted(f.message for f in report.findings)
        assert any("ordering hazard" in m for m in messages)
        assert any("self-deadlock" in m for m in messages)

    def test_rlock_reentry_and_snapshot_pattern_are_clean(
        self, tmp_path
    ):
        root = stage(
            tmp_path, {"race002_pass.py": "src/repro/recorder.py"}
        )
        report = run_deep(["src"], root=root, config=LOCK_CONFIG)
        assert report.parse_errors == []
        assert report.findings == []


class TestPerfRules:
    @pytest.mark.parametrize(
        "fixture,expected",
        [
            ("perf001_fail.py", {"PERF001": 3}),
            ("perf001_pass.py", {}),
            ("perf002_fail.py", {"PERF002": 2}),
            ("perf002_pass.py", {}),
        ],
    )
    def test_hot_loop_fixtures(self, tmp_path, fixture, expected):
        root = stage(tmp_path, {fixture: "src/repro/hotmod.py"})
        report = run_deep(["src"], root=root, config=HOT_CONFIG)
        assert report.parse_errors == []
        by_rule = {}
        for finding in report.findings:
            by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
        assert by_rule == expected, [
            f"{f.rule_id}@{f.path}:{f.line}: {f.message}"
            for f in report.findings
        ]


class TestProgramCache:
    def test_unchanged_modules_reuse_parse_artifacts(self, tmp_path):
        root = stage(
            tmp_path,
            {
                "det010_fail.py": "src/repro/engine.py",
                "det010_fail_clock.py": "src/repro/clock.py",
            },
        )
        first = build_program(["src"], root=root)
        second = build_program(["src"], root=root)
        for relpath, info in first.modules.items():
            assert second.modules[relpath] is info  # cache hit
        # Editing one file invalidates only that file's entry.
        engine = tmp_path / "src" / "repro" / "engine.py"
        engine.write_text(engine.read_text() + "\n# touched\n")
        third = build_program(["src"], root=root)
        assert third.modules["src/repro/engine.py"] is not (
            first.modules["src/repro/engine.py"]
        )
        assert third.modules["src/repro/clock.py"] is (
            first.modules["src/repro/clock.py"]
        )
