"""Run manifests: who ran what, with which seed, on which code.

A manifest makes an experiment's JSON output attributable and
reproducible: it records the seeds, a digest of the effective
configuration, the git revision of the working tree, and wall-clock
timing.  It rides as the first line of every JSONL trace and as the
``manifest`` key of every experiment result the CLI writes.

Wall-clock fields (``started_at``, ``wall_time_s``) are the *only*
non-deterministic content of a trace file — byte-identical-trace
comparisons exclude them (see :func:`scrub_wall_fields`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from typing import Any, Dict, Optional

__all__ = [
    "build_manifest",
    "config_digest",
    "git_revision",
    "scrub_wall_fields",
]

# Manifest keys that carry wall-clock information.
WALL_FIELDS = ("started_at", "wall_time_s")


def config_digest(config: Any) -> str:
    """Stable short digest of an arbitrary JSON-able configuration."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def git_revision(path: Optional[str] = None) -> str:
    """The git revision of ``path`` (defaults to this package's tree).

    Returns ``"unknown"`` outside a git checkout or when git is absent.
    """
    if path is None:
        path = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", path, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def build_manifest(
    experiment: Optional[str] = None,
    seed: Optional[int] = None,
    config: Any = None,
    wall_time_s: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a run manifest.

    Args:
        experiment: Experiment/driver name.
        seed: The run's master seed.
        config: Effective configuration; digested, not embedded.
        wall_time_s: End-to-end run duration (callers usually fill this
            in after the run completes).
        extra: Additional keys merged verbatim (e.g. ``fast`` flags).
    """
    manifest: Dict[str, Any] = {
        "experiment": experiment,
        "seed": seed,
        "config_digest": config_digest(config) if config is not None else None,
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "started_at": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_time_s,
    }
    if extra:
        manifest.update(extra)
    return manifest


def scrub_wall_fields(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Copy of a manifest with wall-clock fields nulled.

    Used when comparing two same-seed runs for byte identity.
    """
    out = dict(manifest)
    for key in WALL_FIELDS:
        if key in out:
            out[key] = None
    return out


class Stopwatch:
    """Tiny helper timing a run for its manifest's ``wall_time_s``."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed_s(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._t0
