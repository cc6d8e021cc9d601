"""Rule engine for the determinism & invariant linter.

Zero-dependency AST analysis: each rule is a function registered under a
stable rule id via :func:`rule`; :func:`lint_paths` walks ``.py`` files,
parses each once, hands every registered rule a shared
:class:`LintContext`, and filters the raw findings through inline
``# repro: noqa[RULE-ID]`` suppressions.

Scoping: a rule declares which repo-relative path prefixes it applies to
(most invariant rules only bind inside ``src/repro`` — tests may pin
seeds or compare floats deliberately).  Files under a ``fixtures``
directory inside ``tests/lint`` are always skipped: they hold the
deliberate violations that the rule tests assert against.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .config import DEFAULT_CONFIG, LintConfig
from .findings import Finding

__all__ = [
    "LintContext",
    "LintReport",
    "Rule",
    "RULES",
    "rule",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "is_suppressed",
    "SRC_SCOPE",
    "ALL_SCOPE",
]

# Path-prefix scopes (repo-relative, POSIX separators).
SRC_SCOPE: Tuple[str, ...] = ("src/repro",)
ALL_SCOPE: Tuple[str, ...] = ("",)

# Directories never linted: deliberate-violation fixtures and caches.
_SKIPPED_DIR_NAMES = {"__pycache__", ".git", ".hypothesis", "build", "dist"}
_FIXTURE_MARKER = ("tests", "lint", "fixtures")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]")

RuleFn = Callable[["LintContext"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    rule_id: str
    summary: str
    scope: Tuple[str, ...]
    fn: RuleFn

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule binds for a repo-relative file path."""
        return any(relpath.startswith(prefix) for prefix in self.scope)


# rule id -> Rule, in registration order.
RULES: Dict[str, Rule] = {}


def rule(
    rule_id: str, summary: str, scope: Sequence[str] = SRC_SCOPE
) -> Callable[[RuleFn], RuleFn]:
    """Register ``fn`` as the implementation of ``rule_id``."""

    def decorate(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = Rule(
            rule_id=rule_id, summary=summary, scope=tuple(scope), fn=fn
        )
        return fn

    return decorate


@dataclass
class LintContext:
    """Everything a rule needs about one source file.

    Attributes:
        relpath: Repo-relative POSIX path of the file.
        source: Full file contents.
        tree: Parsed module AST.
        suppressions: line -> set of suppressed rule ids on that line.
        config: Tree-level linter configuration (DET002 allowlist etc.);
            defaults to the compiled-in :data:`~repro.lint.config.DEFAULT_CONFIG`.
    """

    relpath: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    config: LintConfig = DEFAULT_CONFIG

    def finding(
        self, node: ast.AST, rule_id: str, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` (spanning its lines)."""
        line = getattr(node, "lineno", 1)
        return Finding(
            path=self.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
            end_line=getattr(node, "end_lineno", None) or line,
        )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: List[str] = field(default_factory=list)

    def extend(self, other: "LintReport") -> None:
        """Fold another report into this one."""
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed
        self.parse_errors.extend(other.parse_errors)


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line ``# repro: noqa[RULE-ID,...]`` suppressions in ``source``.

    Comments are located with :mod:`tokenize` so ``#`` characters inside
    string literals can never register as suppressions.
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",")}
            out.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        pass  # Unterminated constructs: the ast parse will report it.
    return out


def is_suppressed(
    finding: Finding, suppressions: Dict[int, Set[str]]
) -> bool:
    """Whether a per-line noqa map suppresses ``finding``.

    A ``# repro: noqa[ID]`` on *any* physical line of the offending
    statement counts, so multi-line calls can carry the comment on the
    closing-paren line as naturally as on the first.
    """
    for line in range(finding.line, finding.last_line + 1):
        if finding.rule_id in suppressions.get(line, ()):
            return True
    return False


def lint_source(
    relpath: str,
    source: str,
    rules: Optional[Sequence[Rule]] = None,
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint one in-memory file; the core primitive under :func:`lint_paths`."""
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        report.parse_errors.append(f"{relpath}: {exc.msg} (line {exc.lineno})")
        return report
    ctx = LintContext(
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
        config=config,
    )
    selected = list(RULES.values()) if rules is None else list(rules)
    for rule_ in selected:
        if not rule_.applies_to(relpath):
            continue
        for finding in rule_.fn(ctx):
            if is_suppressed(finding, ctx.suppressions):
                report.suppressed += 1
                continue
            report.findings.append(finding)
    report.findings.sort()
    return report


def _is_fixture_path(parts: Tuple[str, ...]) -> bool:
    for i in range(len(parts) - len(_FIXTURE_MARKER) + 1):
        if parts[i : i + len(_FIXTURE_MARKER)] == _FIXTURE_MARKER:
            return True
    return False


def iter_python_files(
    paths: Sequence[str], root: Optional[str] = None
) -> Iterator[Tuple[str, str]]:
    """Yield ``(abspath, repo-relative posix path)`` for every lintable file.

    ``paths`` entries may be files or directories, absolute or relative
    to ``root`` (default: the current working directory).
    """
    base = os.path.abspath(root or os.getcwd())
    seen: Set[str] = set()
    for entry in paths:
        abs_entry = (
            entry if os.path.isabs(entry) else os.path.join(base, entry)
        )
        if os.path.isfile(abs_entry):
            candidates = [abs_entry]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(abs_entry):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIPPED_DIR_NAMES
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        candidates.append(os.path.join(dirpath, name))
            candidates.sort()
        for abspath in candidates:
            relpath = os.path.relpath(abspath, base).replace(os.sep, "/")
            parts = tuple(relpath.split("/"))
            if _is_fixture_path(parts) or abspath in seen:
                continue
            seen.add(abspath)
            yield abspath, relpath


def lint_paths(
    paths: Sequence[str],
    root: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint every Python file reachable from ``paths``.

    Importing :mod:`repro.lint.rules` (done lazily here) populates the
    registry, so callers that only ever use :func:`lint_paths` need no
    explicit registration step.  ``config`` defaults to this tree's
    :data:`~repro.lint.config.DEFAULT_CONFIG`; ``root`` only anchors
    relative ``paths`` and the reported repo-relative file names.
    """
    from . import rules as _rules  # noqa: F401  (registration side effect)

    report = LintReport()
    for abspath, relpath in iter_python_files(paths, root=root):
        try:
            with open(abspath, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.parse_errors.append(f"{relpath}: {exc}")
            continue
        report.extend(lint_source(relpath, source, rules=rules, config=config))
    report.findings.sort()
    return report
