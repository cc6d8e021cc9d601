"""On-disk result store for scenario campaigns.

Layout of one campaign directory::

    <dir>/campaign.json        index: spec digest, name, full run grid
    <dir>/spec.resolved.yaml   the fully resolved spec the grid came from
    <dir>/runs/<run_id>.json   one self-contained record per finished run
    <dir>/traces/<run_id>.jsonl  per-run trace shard (traced campaigns)

Every write is atomic (temp file + :func:`os.replace`), so a campaign
killed mid-run never leaves a torn record: on resume, a run file either
parses — the run is done and is skipped — or it does not exist / does
not parse and the run is executed again.  Status is always derived
from the run files themselves, never from mutable index state.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set

from ..scenarios.spec import ScenarioSpec
from ..scenarios.yamlparse import dump_yaml

__all__ = ["CampaignError", "CampaignStore", "HEARTBEAT_STALE_S"]

INDEX_NAME = "campaign.json"
SPEC_NAME = "spec.resolved.yaml"
RUNS_DIR = "runs"
HEARTBEAT_DIR = "heartbeats"
TRACES_DIR = "traces"

# A worker heartbeat older than this (by its own epoch stamp) is shown
# as stale: the worker likely exited without cleanup.
HEARTBEAT_STALE_S = 120.0


class CampaignError(RuntimeError):
    """A campaign directory is unusable for the requested operation."""


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CampaignStore:
    """One campaign directory: index, resolved spec, per-run records."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.runs_dir = os.path.join(root, RUNS_DIR)

    # -- paths ------------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    @property
    def spec_path(self) -> str:
        return os.path.join(self.root, SPEC_NAME)

    def run_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}.json")

    @property
    def heartbeat_dir(self) -> str:
        return os.path.join(self.root, HEARTBEAT_DIR)

    def heartbeat_path(self, worker: str) -> str:
        return os.path.join(self.heartbeat_dir, f"{worker}.json")

    @property
    def traces_dir(self) -> str:
        return os.path.join(self.root, TRACES_DIR)

    def trace_path(self, run_id: str) -> str:
        return os.path.join(self.traces_dir, f"{run_id}.jsonl")

    def trace_shards(self) -> List[str]:
        """Per-run trace shard files, sorted by name (merge input).

        Flight-recorder dumps (``flight-*.jsonl``) live in the same
        directory but are diagnostics, not shards.
        """
        try:
            names = os.listdir(self.traces_dir)
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.traces_dir, name)
            for name in sorted(names)
            if name.endswith(".jsonl") and not name.startswith("flight-")
        ]

    # -- lifecycle --------------------------------------------------------

    def initialize(self, spec: ScenarioSpec) -> Dict[str, Any]:
        """Create (or re-open) the campaign directory for ``spec``.

        Re-opening with a spec whose digest differs from the stored one
        raises — results from different configurations must not mix in
        one directory.
        """
        existing = self.read_index()
        if existing is not None:
            if existing.get("spec_digest") != spec.digest:
                raise CampaignError(
                    f"campaign at {self.root} was created from spec digest "
                    f"{existing.get('spec_digest')} but the current spec "
                    f"resolves to {spec.digest}; use a fresh directory"
                )
            return existing
        index = {
            "schema": 1,
            "name": spec.name,
            "spec_digest": spec.digest,
            "source": spec.source,
            "runs": [
                {"run_id": r.run_id, "index": r.index, "seed": r.seed,
                 "overrides": r.overrides}
                for r in spec.runs()
            ],
        }
        # Created only once the grid expands: a spec that fails its run
        # checks leaves no directory behind.
        os.makedirs(self.runs_dir, exist_ok=True)
        _atomic_write(self.index_path, json.dumps(index, indent=2, sort_keys=True))
        _atomic_write(self.spec_path, dump_yaml(spec.resolved))
        return index

    def read_index(self) -> Optional[Dict[str, Any]]:
        """The campaign index, or ``None`` when not initialized."""
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"unreadable campaign index {self.index_path}: {exc}")

    def require_index(self) -> Dict[str, Any]:
        index = self.read_index()
        if index is None:
            raise CampaignError(f"no campaign at {self.root} (missing {INDEX_NAME})")
        return index

    # -- run records ------------------------------------------------------

    def write_result(self, record: Dict[str, Any]) -> str:
        """Persist one finished run atomically; returns the file path."""
        run_id = record["run_id"]
        os.makedirs(self.runs_dir, exist_ok=True)
        path = self.run_path(run_id)
        _atomic_write(path, json.dumps(record, indent=2, sort_keys=True))
        return path

    def read_result(self, run_id: str) -> Optional[Dict[str, Any]]:
        """A finished run's record, or ``None`` if missing or torn."""
        try:
            with open(self.run_path(run_id), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None

    def completed_run_ids(self) -> Set[str]:
        """Run IDs with a parseable result file on disk."""
        try:
            names = os.listdir(self.runs_dir)
        except FileNotFoundError:
            return set()
        done: Set[str] = set()
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            run_id = name[: -len(".json")]
            if self.read_result(run_id) is not None:
                done.add(run_id)
        return done

    def results(self) -> List[Dict[str, Any]]:
        """All finished run records, ordered by run index."""
        index = self.require_index()
        out: List[Dict[str, Any]] = []
        for row in index["runs"]:
            record = self.read_result(row["run_id"])
            if record is not None:
                out.append(record)
        return sorted(out, key=lambda r: r.get("index", 0))

    def write_trace_shard(self, run_id: str, jsonl: str) -> str:
        """Persist one run's trace shard atomically; returns the path."""
        os.makedirs(self.traces_dir, exist_ok=True)
        path = self.trace_path(run_id)
        _atomic_write(path, jsonl)
        return path

    # -- worker heartbeats -------------------------------------------------
    #
    # One JSON file per worker under <dir>/heartbeats/, written
    # atomically after every completed run.  Heartbeats are pure
    # telemetry: wall-clock-bearing, never read back into results, and
    # cleared when a campaign finishes.

    def write_heartbeat(self, record: Dict[str, Any]) -> str:
        """Persist one worker heartbeat atomically; returns the path."""
        worker = record["worker"]
        os.makedirs(self.heartbeat_dir, exist_ok=True)
        path = self.heartbeat_path(worker)
        _atomic_write(path, json.dumps(record, indent=2, sort_keys=True))
        return path

    def heartbeats(self) -> List[Dict[str, Any]]:
        """All parseable worker heartbeats, sorted by worker name."""
        try:
            names = os.listdir(self.heartbeat_dir)
        except FileNotFoundError:
            return []
        out: List[Dict[str, Any]] = []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            try:
                with open(
                    os.path.join(self.heartbeat_dir, name),
                    "r",
                    encoding="utf-8",
                ) as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue  # torn heartbeat: a fresh one lands shortly
            if isinstance(record, dict):
                out.append(record)
        return sorted(out, key=lambda r: str(r.get("worker")))

    def clear_heartbeats(self) -> None:
        """Remove all heartbeat files (campaign finished or restarted)."""
        try:
            names = os.listdir(self.heartbeat_dir)
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.heartbeat_dir, name))
                except OSError:
                    pass

    def status(self) -> Dict[str, Any]:
        """Completion state derived from the run files on disk."""
        index = self.require_index()
        done = self.completed_run_ids()
        runs = [
            {
                "run_id": row["run_id"],
                "index": row["index"],
                "seed": row["seed"],
                "overrides": row.get("overrides", {}),
                "done": row["run_id"] in done,
            }
            for row in index["runs"]
        ]
        completed = sum(1 for row in runs if row["done"])
        return {
            "name": index.get("name"),
            "spec_digest": index.get("spec_digest"),
            "total": len(runs),
            "completed": completed,
            "pending": len(runs) - completed,
            "trace_shards": len(self.trace_shards()),
            "runs": runs,
        }
