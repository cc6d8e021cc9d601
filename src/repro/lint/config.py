"""Linter configuration: the ``[tool.repro-lint]`` table in pyproject.

Rules never hard-code project paths; everything tree-specific — the
DET002 wall-clock telemetry allowlist, the DET010 pure roots, the
deep-pass analysis scope — lives in ``pyproject.toml`` and is parsed
into an immutable :class:`LintConfig`.  The compiled-in defaults equal
the shipped table, so ``lint_source`` (which never touches the
filesystem) behaves identically with or without a pyproject.

Parsing is zero-dependency: :mod:`tomllib` on Python 3.11+, with a
minimal TOML-subset fallback (one table of strings and string arrays)
for 3.9/3.10.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field, fields
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG", "load_config", "parse_config"]

# The pyproject table that configures the linter.
CONFIG_TABLE = "tool.repro-lint"


@dataclass(frozen=True)
class LintConfig:
    """Tree-specific linter knobs (see DESIGN.md section 9.2).

    Attributes:
        wall_clock_modules: Repo-relative module paths that *are* the
            telemetry layer — DET002 exempts them wholesale, and the
            DET010 purity traversal treats them as boundaries (their
            wall-clock reads land only in ``*_wall_s`` fields).
        wall_clock_sites: ``path::function`` telemetry sites allowed to
            read the wall clock (DET002) and treated as purity
            boundaries (DET010).
        pure_roots: Dotted qualnames of the deterministic hot-path
            roots: DET010 reports any call path from one of these that
            reaches wall-clock, unseeded RNG, filesystem, or env
            access, and PERF001/PERF002 lint loops only inside
            functions reachable from them.
    """

    wall_clock_modules: Tuple[str, ...] = (
        "src/repro/obs/profiling.py",
        "src/repro/obs/manifest.py",
        "src/repro/obs/perf.py",
    )
    wall_clock_sites: Tuple[Tuple[str, str], ...] = (
        ("src/repro/core/master_client.py", "_roundtrip_once"),
        ("src/repro/core/master_client.py", "_roundtrip"),
        ("src/repro/core/evolutionary.py", "evolve"),
        ("src/repro/core/intra_planner.py", "plan"),
        ("src/repro/core/upgrade.py", "run_capacity_upgrade"),
    )
    pure_roots: Tuple[str, ...] = (
        "repro.sim.engine.OnlineSimulator.run_online",
        "repro.gateway.gateway.Gateway.receive",
        "repro.phy.interference.decode_ok",
    )

    @property
    def wall_clock_site_set(self) -> FrozenSet[Tuple[str, str]]:
        """The allowlist as a set for O(1) membership tests."""
        return frozenset(self.wall_clock_sites)

    @property
    def wall_clock_module_set(self) -> FrozenSet[str]:
        return frozenset(self.wall_clock_modules)


DEFAULT_CONFIG = LintConfig()

# TOML key (kebab-case) -> LintConfig field.
_KEY_OF_FIELD = {
    "wall_clock_modules": "wall-clock-modules",
    "wall_clock_sites": "wall-clock-sites",
    "pure_roots": "pure-roots",
}


def parse_config(table: Dict[str, Any], source: str = "<config>") -> LintConfig:
    """Build a :class:`LintConfig` from a raw ``[tool.repro-lint]`` table.

    Unknown keys raise ``ValueError`` (a typo must not silently fall
    back to defaults); missing keys keep their compiled-in default.
    """
    known = {toml_key: f for f, toml_key in _KEY_OF_FIELD.items()}
    unknown = sorted(set(table) - set(known))
    if unknown:
        raise ValueError(
            f"{source}: unknown [{CONFIG_TABLE}] key(s): {', '.join(unknown)}"
            f" (known: {', '.join(sorted(known))})"
        )
    kwargs: Dict[str, Any] = {}
    for toml_key, field_name in known.items():
        if toml_key not in table:
            continue
        raw = table[toml_key]
        if not isinstance(raw, list) or not all(
            isinstance(item, str) for item in raw
        ):
            raise ValueError(
                f"{source}: [{CONFIG_TABLE}] {toml_key} must be an array "
                "of strings"
            )
        if field_name == "wall_clock_sites":
            sites: List[Tuple[str, str]] = []
            for item in raw:
                path, sep, func = item.partition("::")
                if not sep or not path or not func:
                    raise ValueError(
                        f"{source}: [{CONFIG_TABLE}] wall-clock-sites entry "
                        f"{item!r} must look like 'path/to/mod.py::function'"
                    )
                sites.append((path, func))
            kwargs[field_name] = tuple(sites)
        else:
            kwargs[field_name] = tuple(raw)
    return LintConfig(**kwargs)


def load_config(root: Optional[str] = None) -> LintConfig:
    """Load the config for the tree at ``root`` (default: cwd).

    A missing ``pyproject.toml`` or a pyproject without a
    ``[tool.repro-lint]`` table yields :data:`DEFAULT_CONFIG`; a
    malformed table raises ``ValueError`` so CI never silently lints
    with the wrong allowlist.
    """
    base = os.path.abspath(root or os.getcwd())
    path = os.path.join(base, "pyproject.toml")
    if not os.path.isfile(path):
        return DEFAULT_CONFIG
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    table = _read_table(text, path)
    if table is None:
        return DEFAULT_CONFIG
    return parse_config(table, source=path)


# ---------------------------------------------------------------------------
# TOML reading: stdlib tomllib when present, a narrow fallback otherwise.


def _read_table(text: str, path: str) -> Optional[Dict[str, Any]]:
    """The raw ``[tool.repro-lint]`` table of a pyproject, or None."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        return _read_table_fallback(text, path)
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    table: Any = data
    for part in ("tool", "repro-lint"):
        if not isinstance(table, dict) or part not in table:
            return None
        table = table[part]
    return table if isinstance(table, dict) else None


_HEADER_RE = re.compile(r"^\s*\[([^\]]+)\]\s*(?:#.*)?$")
_KEY_RE = re.compile(r"^\s*([A-Za-z0-9_-]+)\s*=\s*(.*)$")


def _read_table_fallback(text: str, path: str) -> Optional[Dict[str, Any]]:
    """Minimal TOML-subset reader for Python < 3.11.

    Supports exactly what the ``[tool.repro-lint]`` table uses: bare
    keys bound to basic strings or (possibly multi-line) arrays of
    basic strings, with ``#`` comments on their own lines.  Anything
    beyond that inside the table raises ``ValueError``.
    """
    lines = text.splitlines()
    table: Dict[str, Any] = {}
    inside = False
    found = False
    i = 0
    while i < len(lines):
        line = lines[i]
        header = _HEADER_RE.match(line)
        if header is not None:
            inside = header.group(1).strip() == "tool.repro-lint"
            found = found or inside
            i += 1
            continue
        if not inside or not line.strip() or line.lstrip().startswith("#"):
            i += 1
            continue
        key_match = _KEY_RE.match(line)
        if key_match is None:
            raise ValueError(
                f"{path}: unsupported [{CONFIG_TABLE}] syntax: {line!r}"
            )
        key, value = key_match.group(1), key_match.group(2)
        # Accumulate lines until the array literal balances.
        while value.count("[") > value.count("]"):
            i += 1
            if i >= len(lines):
                raise ValueError(
                    f"{path}: unterminated array for [{CONFIG_TABLE}] {key}"
                )
            value += "\n" + lines[i]
        table[key] = _parse_value(value, key, path)
        i += 1
    return table if found else None


def _parse_value(value: str, key: str, path: str) -> Any:
    # Strip full-line comments inside arrays (never inside strings:
    # basic TOML strings here contain no '#' — enforced by literal_eval
    # failing otherwise).
    cleaned = "\n".join(
        part for part in value.splitlines() if not part.lstrip().startswith("#")
    ).strip()
    try:
        parsed = ast.literal_eval(cleaned)
    except (ValueError, SyntaxError) as exc:
        raise ValueError(
            f"{path}: could not parse [{CONFIG_TABLE}] {key} = {value!r} "
            "(fallback parser supports strings and string arrays only)"
        ) from exc
    if isinstance(parsed, tuple):
        parsed = list(parsed)
    return parsed
