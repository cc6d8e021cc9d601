"""``python -m repro.tools lint`` — the linter's command-line front end.

Exit codes: 0 clean, 1 findings, 2 parse/usage errors.  ``--format
json`` emits a machine-readable report (uploaded as a CI artifact);
``--format sarif`` emits a SARIF 2.1.0 log for code-scanning upload;
``--format github`` emits workflow-command annotations.

``--deep`` additionally runs the whole-program passes (DET010 purity,
RACE001/002 lock discipline, PERF001/002 hot loops) over a project-wide
call graph.  ``--changed [REF]`` restricts *reported* files to those
touched vs a git ref (default HEAD) for fast local iteration — under
``--deep`` the call graph still spans every requested path, so
cross-module facts stay sound; when git is unavailable the flag
degrades to a full run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional, Sequence, Set, TextIO

from .deeprules import DEEP_RULES, run_deep
from .engine import RULES, LintReport, iter_python_files, lint_paths
from .findings import render_github, render_json, render_sarif, render_text

__all__ = ["add_lint_arguments", "run_lint", "changed_files"]

DEFAULT_PATHS = ("src", "tests")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint subcommand's arguments onto ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github", "sarif"),
        default="text",
        help="finding output format",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program passes (call-graph purity, "
        "lock discipline, hot-loop hygiene)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="only report findings in files changed vs REF (default "
        "HEAD); falls back to a full run when git is unavailable",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule ids and exit",
    )


def changed_files(
    ref: str = "HEAD", root: Optional[str] = None
) -> Optional[List[str]]:
    """Repo-relative paths changed vs ``ref`` plus untracked files.

    Returns None when git is unavailable or the ref does not resolve
    (callers fall back to a full run).
    """
    base = os.path.abspath(root or os.getcwd())

    def run(cmd: List[str]) -> Optional[List[str]]:
        try:
            proc = subprocess.run(
                cmd,
                cwd=base,
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode != 0:
            return None
        return [line.strip() for line in proc.stdout.splitlines() if line.strip()]

    diffed = run(["git", "diff", "--name-only", ref, "--"])
    if diffed is None:
        return None
    untracked = run(["git", "ls-files", "--others", "--exclude-standard"])
    if untracked is None:
        untracked = []
    return sorted(set(diffed) | set(untracked))


def _rule_descriptions() -> dict:
    out = {rid: r.summary for rid, r in RULES.items()}
    out.update({rid: r.summary for rid, r in DEEP_RULES.items()})
    return out


def run_lint(
    args: argparse.Namespace, stdout: Optional[TextIO] = None
) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    if args.list_rules:
        rows = sorted(RULES.items())
        deep_rows = sorted(DEEP_RULES.items())
        width = max(len(rid) for rid, _ in rows + deep_rows)
        for rid, rule_ in rows:
            print(f"{rid:<{width}}  {rule_.summary}", file=out)
        for rid, rule_ in deep_rows:
            print(f"{rid:<{width}}  {rule_.summary} [--deep]", file=out)
        return 0

    # --changed: restrict the *reported* file set.
    report_only: Optional[Set[str]] = None
    if args.changed is not None:
        changed = changed_files(args.changed)
        if changed is None:
            print(
                f"--changed {args.changed}: git unavailable or ref "
                "unresolvable; linting everything",
                file=sys.stderr,
            )
        else:
            candidates = {
                rel for _, rel in iter_python_files(args.paths)
            }
            report_only = candidates & set(changed)

    if report_only is not None:
        shallow_targets: Sequence[str] = sorted(report_only)
        report = (
            lint_paths(shallow_targets)
            if shallow_targets
            else LintReport()
        )
    else:
        report = lint_paths(args.paths)

    if args.deep:
        deep = run_deep(args.paths, report_only=report_only)
        report.findings.extend(deep.findings)
        report.suppressed += deep.suppressed
        report.parse_errors.extend(
            err for err in deep.parse_errors
            if err not in report.parse_errors
        )
        report.findings.sort()

    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    findings = report.findings
    if args.format == "json":
        print(render_json(findings), file=out)
    elif args.format == "sarif":
        print(
            render_sarif(findings, rule_descriptions=_rule_descriptions()),
            file=out,
        )
    elif args.format == "github":
        rendered = render_github(findings)
        if rendered:
            print(rendered, file=out)
    elif findings:
        print(render_text(findings), file=out)
    print(
        f"{len(findings)} finding(s) in {report.files_checked} file(s)"
        f" [{report.suppressed} suppressed inline]",
        file=sys.stderr,
    )
    if report.parse_errors:
        return 2
    return 1 if findings else 0
