"""Finding and report types for the determinism & invariant linter.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`Finding.fingerprint` is its stable identity in the JSON report
and in SARIF's ``partialFingerprints``: rule id, repo-relative path and
a short hash of the message — deliberately *excluding* the line number,
so unrelated edits above a finding do not change its identity between
runs.

Renderers cover every CLI ``--format``: plain text, JSON, GitHub
workflow commands (``::error file=...``, surfaced as PR annotations),
and SARIF 2.1.0 (uploaded by CI for code-scanning integration).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "Finding",
    "render_text",
    "render_json",
    "render_github",
    "render_sarif",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: Repo-relative POSIX path of the offending file.
        line: 1-based line of the violation.
        col: 0-based column of the violation.
        rule_id: Identifier of the rule that fired (e.g. ``DET001``).
        message: Human-readable description of the violation.
        end_line: 1-based last line of the offending statement (0 means
            unknown — treated as ``line``).  A ``# repro: noqa[ID]``
            comment anywhere in ``line..end_line`` suppresses the
            finding, so multi-line statements can carry the comment on
            any of their physical lines.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    end_line: int = 0

    @property
    def last_line(self) -> int:
        """The final physical line of the finding (always >= line)."""
        return max(self.line, self.end_line)

    def fingerprint(self) -> str:
        """Stable identity across runs (line-number free)."""
        digest = hashlib.blake2b(
            f"{self.rule_id}:{self.path}:{self.message}".encode("utf-8"),
            digest_size=6,
        ).hexdigest()
        return f"{self.rule_id}:{self.path}:{digest}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe plain-dict form, including the fingerprint."""
        out: Dict[str, object] = dict(asdict(self))
        out["fingerprint"] = self.fingerprint()
        return out


def render_text(findings: Iterable[Finding]) -> str:
    """``path:line:col: RULE message`` lines, one per finding."""
    lines: List[str] = []
    for f in sorted(findings):
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.rule_id} {f.message}")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    """A JSON document: finding objects plus a per-rule summary."""
    ordered = sorted(findings)
    by_rule: Dict[str, int] = {}
    for f in ordered:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    return json.dumps(
        {
            "findings": [f.to_dict() for f in ordered],
            "total": len(ordered),
            "by_rule": dict(sorted(by_rule.items())),
        },
        indent=2,
    )


def _escape_workflow_value(value: str) -> str:
    """Escape a message for the data part of a workflow command."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _escape_workflow_property(value: str) -> str:
    """Escape a property value (file=, title=) of a workflow command."""
    return (
        _escape_workflow_value(value).replace(":", "%3A").replace(",", "%2C")
    )


def render_github(findings: Iterable[Finding]) -> str:
    """GitHub Actions workflow commands, one ``::error`` per finding.

    Emitted on a runner these become inline PR annotations; locally they
    are still readable one-line records.
    """
    lines: List[str] = []
    for f in sorted(findings):
        props = (
            f"file={_escape_workflow_property(f.path)}"
            f",line={f.line}"
            f",endLine={f.last_line}"
            f",col={f.col + 1}"
            f",title={_escape_workflow_property(f.rule_id)}"
        )
        lines.append(
            f"::error {props}::{_escape_workflow_value(f.message)}"
        )
    return "\n".join(lines)


def render_sarif(
    findings: Iterable[Finding],
    rule_descriptions: Optional[Mapping[str, str]] = None,
) -> str:
    """A minimal SARIF 2.1.0 log (one run, driver ``repro-lint``).

    ``rule_descriptions`` maps rule ids to their one-line summaries for
    the driver's rule metadata; rules absent from the mapping still get
    a bare descriptor so every result's ``ruleId`` resolves.
    """
    ordered = sorted(findings)
    descriptions = dict(rule_descriptions or {})
    rule_ids = sorted({f.rule_id for f in ordered} | set(descriptions))
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": descriptions.get(rule_id, rule_id)
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": f.rule_id,
            "ruleIndex": rule_index[f.rule_id],
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "ROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "endLine": f.last_line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {"reproLint/v1": f.fingerprint()},
        }
        for f in ordered
    ]
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "ROOT": {"uri": "file:///./"}
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
