"""Linter configuration: the tree's allowlist and pure roots.

Rules never hard-code project paths; everything tree-specific — the
DET002 wall-clock telemetry allowlist and the DET010 pure roots, which
also scope the PERF passes — lives in :class:`LintConfig`, whose
compiled-in defaults (:data:`DEFAULT_CONFIG`) are this tree's
configuration.  Growing the allowlist is a reviewed edit here
(DESIGN.md section 9.2); tests lint fixture trees with their own
:class:`LintConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Tree-specific linter knobs (see DESIGN.md section 9.2).

    The defaults are this tree's configuration: every linter entry
    point uses them unless a caller passes its own instance.

    Attributes:
        wall_clock_modules: Repo-relative module paths that *are* the
            telemetry layer — DET002 exempts them wholesale, and the
            DET010 purity traversal treats them as boundaries (their
            wall-clock reads land only in ``*_wall_s`` fields).
        wall_clock_sites: ``(path, function)`` telemetry sites allowed
            to read the wall clock (DET002) and treated as purity
            boundaries (DET010).
        pure_roots: Dotted qualnames of the deterministic hot-path
            roots: DET010 reports any call path from one of these that
            reaches wall-clock, unseeded RNG, filesystem, or env
            access, and PERF001/PERF002 lint loops only inside
            functions reachable from them.
    """

    wall_clock_modules: Tuple[str, ...] = (
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
