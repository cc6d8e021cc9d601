"""Determinism & invariant linter for the AlphaWAN reproduction.

A zero-dependency, AST-based static-analysis pass that machine-checks
the invariants the repo's byte-for-byte reproducibility claims rest on:

=========  ==============================================================
Rule id    Invariant
=========  ==============================================================
DET001     All RNG flows from an explicit seed expression — no
           process-global ``random.*``/``numpy.random.*`` streams, no
           unseeded or literal-seeded ``random.Random``.
DET002     Wall clock (``time.time``/``perf_counter``/``datetime.now``)
           confined to an allowlist of telemetry sites whose readings
           land only in ``*_wall_s``/``*_rtt_s`` fields (allowlist in
           :data:`~repro.lint.config.DEFAULT_CONFIG`).
DET003     No ``==``/``!=`` between float simulation times — use
           ``math.isclose`` or integer ticks.
OBS001     Every ``repro.obs`` hook-slot use is None-guarded, keeping
           disabled-observability overhead <5 %.
API001     Public functions and dataclasses in ``src/repro`` carry
           complete type annotations.
UNIT001    Numeric dataclass fields naming physical quantities carry a
           unit suffix (``_s``, ``_hz``, ``_dbm``, ``_db``, ``_m`` ...).
=========  ==============================================================

Whole-program rules (``lint --deep``; need the project call graph from
:mod:`repro.lint.program`, so they live in their own registry):

=========  ==============================================================
DET010     No call path from a configured *pure root* (the simulation
           event loop, the gateway pipeline, phy interference) reaches
           wall-clock, unseeded RNG, filesystem, or env access; the
           offending call chain is rendered in the finding.
RACE001    An attribute mutated under ``with self._lock:`` somewhere is
           never mutated without that lock elsewhere (lexically or on
           every call path — interprocedural must-hold analysis).
RACE002    No call made while holding a lock into a function that
           itself acquires locks (ordering hazards / self-deadlock);
           re-entrant same-RLock acquisition is exempt.
PERF001    No per-iteration allocation patterns (``dataclasses.replace``,
           self-rebuilding comprehensions, closures) in loops of
           functions reachable from the pure roots.
PERF002    No deep attribute chain read repeatedly inside one hot-loop
           iteration — hoist into a local.
=========  ==============================================================

Entry points: ``python -m repro.tools lint`` (CLI; ``--deep`` for the
whole-program passes, ``--changed`` for touched-files-only reporting),
``make lint``, the pytest gate ``tests/lint/test_repo_clean.py``, and
the library APIs :func:`lint_paths` / :func:`run_deep`.  Inline
suppression: ``# repro: noqa[RULE-ID]`` on any physical line of the
offending statement, next to a comment justifying it; there is no
finding baseline, so any other finding must be fixed.  DESIGN.md
section 9 is the human-readable contract.
"""

from __future__ import annotations

from .config import DEFAULT_CONFIG, LintConfig
from .engine import (
    LintContext,
    LintReport,
    Rule,
    RULES,
    is_suppressed,
    iter_python_files,
    lint_paths,
    lint_source,
    rule,
)
from .findings import (
    Finding,
    render_github,
    render_json,
    render_sarif,
    render_text,
)
from . import rules as _rules  # noqa: F401  (populates the registry)
from .deeprules import DEEP_RULES, DeepRule, deep_rule, run_deep
from .program import ProgramIndex, build_program

__all__ = [
    "DEEP_RULES",
    "DEFAULT_CONFIG",
    "DeepRule",
    "Finding",
    "LintConfig",
    "LintContext",
    "LintReport",
    "ProgramIndex",
    "Rule",
    "RULES",
    "build_program",
    "deep_rule",
    "is_suppressed",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_github",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "run_deep",
]
