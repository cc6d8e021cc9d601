"""Per-rule fixture tests: one failing and one passing example per id.

Fixtures live under ``tests/lint/fixtures`` (excluded from repo-wide
lint walks) and are linted under a synthetic ``src/repro`` path so all
src-scoped rules bind.
"""

import os

import pytest

from repro.lint import RULES, lint_source
from repro.lint.engine import LintReport

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
RULE_IDS = sorted(RULES)

# Violations each *_fail.py fixture deliberately contains.
EXPECTED_FAIL_COUNTS = {
    "DET001": 6,  # global fns x2, literal/unseeded Random, numpy x2
    "DET002": 4,  # time.time, perf_counter, monotonic, datetime.now
    "DET003": 3,  # ==, !=, method-attribute ==
    "OBS001": 5,  # frozen import, chained, unguarded local, guard-too-late, PERF
    "OBS002": 4,  # camelCase metric, kind conflict, help conflict, bad rule name
    "API001": 5,  # two on scale(), one param, one return, one dataclass attr
    "UNIT001": 3,  # timeout, bandwidth, tx_power
}


def lint_fixture(name: str, relpath: str = "src/repro/_fixture.py") -> LintReport:
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return lint_source(relpath, fh.read())


def test_every_rule_has_both_fixtures():
    for rule_id in RULE_IDS:
        for kind in ("fail", "pass"):
            path = os.path.join(FIXTURES, f"{rule_id.lower()}_{kind}.py")
            assert os.path.exists(path), f"missing fixture {path}"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_fail_fixture_triggers_rule(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_fail.py")
    hits = [f for f in report.findings if f.rule_id == rule_id]
    assert len(hits) == EXPECTED_FAIL_COUNTS[rule_id], (
        f"{rule_id}: expected {EXPECTED_FAIL_COUNTS[rule_id]} findings, "
        f"got {[f'{f.line}:{f.message}' for f in hits]}"
    )
    assert all(f.path == "src/repro/_fixture.py" for f in hits)
    assert all(f.line > 0 for f in hits)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_pass_fixture_is_fully_clean(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_pass.py")
    assert report.findings == [], [
        f"{f.rule_id}@{f.line}: {f.message}" for f in report.findings
    ]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rules_scope_to_src_repro(rule_id):
    """The same violations outside src/repro bind no src-scoped rule."""
    report = lint_fixture(f"{rule_id.lower()}_fail.py", relpath="tests/foo.py")
    assert [f for f in report.findings if f.rule_id == rule_id] == []


class TestDet001Precision:
    def test_seed_expression_is_allowed(self):
        report = lint_source(
            "src/repro/x.py",
            "import random\n"
            "def f(seed: int) -> random.Random:\n"
            "    return random.Random(seed * 977 + 3)\n",
        )
        assert report.findings == []

    def test_keyword_literal_seed_is_flagged(self):
        report = lint_source(
            "src/repro/x.py",
            "import random\nrng = random.Random(x=12345)\n",
        )
        assert [f.rule_id for f in report.findings] == ["DET001"]

    def test_instance_methods_are_not_global_streams(self):
        report = lint_source(
            "src/repro/x.py",
            "import random\n"
            "def f(rng: random.Random) -> float:\n"
            "    return rng.random() + rng.uniform(0.0, 1.0)\n",
        )
        assert report.findings == []

    def test_aliased_import_is_resolved(self):
        report = lint_source(
            "src/repro/x.py",
            "import random as _random\n"
            "def f(order: list) -> None:\n"
            "    _random.shuffle(order)\n",
        )
        assert [f.rule_id for f in report.findings] == ["DET001"]


class TestDet002Precision:
    def test_telemetry_modules_are_exempt(self):
        report = lint_source(
            "src/repro/obs/perf.py",
            "from time import perf_counter\n"
            "def now() -> float:\n"
            "    return perf_counter()\n",
        )
        assert report.findings == []

    def test_allowlisted_site_is_exempt(self):
        src = (
            "import time\n"
            "class MasterClient:\n"
            "    def _roundtrip_once(self) -> float:\n"
            "        return time.perf_counter()\n"
        )
        clean = lint_source("src/repro/core/master_client.py", src)
        assert clean.findings == []
        flagged = lint_source("src/repro/core/master.py", src)
        assert [f.rule_id for f in flagged.findings] == ["DET002"]


class TestObs001Precision:
    def test_rebinding_clears_slot_tracking(self):
        report = lint_source(
            "src/repro/x.py",
            "from repro.obs import runtime as _obs\n"
            "def f() -> None:\n"
            "    rec = _obs.TRACE\n"
            "    rec = object()\n"
            "    rec.emit('x')\n",
        )
        assert report.findings == []

    def test_else_branch_of_is_none_is_guarded(self):
        report = lint_source(
            "src/repro/x.py",
            "from repro.obs import runtime as _obs\n"
            "def f() -> None:\n"
            "    rec = _obs.TRACE\n"
            "    if rec is None:\n"
            "        pass\n"
            "    else:\n"
            "        rec.emit('x')\n",
        )
        assert report.findings == []

    def test_use_inside_is_none_body_is_flagged(self):
        report = lint_source(
            "src/repro/x.py",
            "from repro.obs import runtime as _obs\n"
            "def f() -> None:\n"
            "    rec = _obs.TRACE\n"
            "    if rec is None:\n"
            "        rec.emit('x')\n",
        )
        assert [f.rule_id for f in report.findings] == ["OBS001"]

    def test_slot_list_matches_the_runtime(self):
        # A slot added to or removed from obs/runtime.py without the
        # linter's list would go unchecked, or be checked for nothing.
        from repro.lint.rules import _OBS_SLOTS
        from repro.obs import runtime

        assert _OBS_SLOTS == {name for name in runtime.__all__ if name.isupper()}


class TestUnit001Precision:
    def test_non_numeric_fields_are_ignored(self):
        report = lint_source(
            "src/repro/x.py",
            "from dataclasses import dataclass\n"
            "from typing import Tuple\n"
            "@dataclass\n"
            "class C:\n"
            "    power_curve: Tuple[float, ...] = ()\n",
        )
        assert report.findings == []

    def test_non_dataclass_attributes_are_ignored(self):
        report = lint_source(
            "src/repro/x.py",
            "class C:\n    timeout: float = 1.0\n",
        )
        assert report.findings == []
