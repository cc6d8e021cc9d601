"""The AlphaWAN Master node: regional spectrum-sharing coordinator.

Operators register before deploying infrastructure in a region; the
Master keeps the channel-occupancy record and answers requests with the
operator's allocation — a frequency-misaligned channel grid plus, when
operators outnumber the isolated misalignment slots, a disjoint channel
subset within the shared slot (section 4.3.2).  The class is
transport-agnostic — :mod:`.master_server` exposes it over TCP, and
tests may call it in-process.

Durability and recovery (``DESIGN.md`` §11):

* With a :class:`~repro.core.journal.StateJournal` attached, every
  mutating request is journaled **before** the in-memory state commits
  (write-ahead), and :meth:`snapshot` / :meth:`MasterNode.recover`
  rebuild the identical node after a ``kill -9`` — snapshot first,
  then replay of journal records past the snapshot's sequence number.
* Every assignment carries a **lease** token (minted deterministically
  from the grant) and the Master's **epoch** (incarnation counter,
  bumped on each recovery).  Reconnecting operators revalidate their
  lease with :meth:`resume` instead of re-registering.
* Mutations may carry a client-generated ``request_id``; completed
  request IDs are journaled, so a retry that reaches a *restarted*
  Master is answered from the journal instead of re-allocating —
  exactly-once semantics over a lossy wire.
* When a journal write fails (disk full, injected fault) the Master
  flips to **read-only mode**: reads (:meth:`status`, :meth:`resume`)
  keep working, mutations raise :class:`MasterReadOnlyError`.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..obs import runtime as _obs
from ..obs.events import EventType
from ..phy.channels import Channel, ChannelGrid
from .inter_planner import OperatorAllocation, allocate_operators
from .journal import (
    JournalError,
    StateJournal,
    read_snapshot,
    write_snapshot,
)

logger = logging.getLogger(__name__)

__all__ = [
    "Assignment",
    "LeaseError",
    "MasterNode",
    "MasterReadOnlyError",
    "RegionFullError",
    "SNAPSHOT_SCHEMA_VERSION",
]

SNAPSHOT_SCHEMA_VERSION = 1


class RegionFullError(Exception):
    """Raised when every operator slot of the region is taken."""

    code = "region_full"


class MasterReadOnlyError(Exception):
    """The Master cannot persist mutations and rejects them (degraded)."""

    code = "degraded"


class LeaseError(Exception):
    """A resume handshake presented an unknown operator or stale lease."""

    def __init__(self, message: str, code: str = "lease_invalid") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Assignment:
    """A channel assignment issued to one operator.

    ``lease`` is the proof-of-grant token the operator presents on
    :meth:`MasterNode.resume`; ``epoch`` is the Master incarnation that
    issued (or, after recovery, revalidated) the assignment.
    """

    operator: str
    slot: int
    shift_hz: float
    grid: ChannelGrid
    channel_indices: Tuple[int, ...]
    lease: str = ""
    epoch: int = 0

    def channels(self) -> List[Channel]:
        """The operator's usable channels."""
        return [self.grid.channel(i) for i in self.channel_indices]


def _mint_lease(operator: str, slot: int, seq: int) -> str:
    """Deterministic lease token for one grant.

    Derived from the grant's identity (operator, slot, journal
    sequence), so journal replay re-mints byte-identical leases — a
    lease issued before a crash still validates after recovery.
    """
    digest = hashlib.blake2b(
        f"{operator}:{slot}:{seq}".encode("utf-8"), digest_size=12
    )
    return digest.hexdigest()


class MasterNode:
    """Centralized channel division and occupancy bookkeeping.

    Args:
        base_grid: The regional spectrum's channel grid.
        expected_networks: The Master's estimate of how many networks
            will coexist in the region; fixes the misalignment step and
            the channel division.
        overlap_ratio: Optional explicit adjacent-operator channel
            overlap ratio (the paper evaluates 20 %, 40 % and 60 %);
            overrides the uniform division.
        journal: Optional write-ahead :class:`StateJournal`; with one
            attached every mutation is durable before it is answered,
            and :meth:`recover` rebuilds the node after a crash.
    """

    def __init__(
        self,
        base_grid: ChannelGrid,
        expected_networks: int = 4,
        overlap_ratio: Optional[float] = None,
        journal: Optional[StateJournal] = None,
    ) -> None:
        self.base_grid = base_grid
        self.expected_networks = expected_networks
        self.overlap_ratio = overlap_ratio
        self.allocations: List[OperatorAllocation] = allocate_operators(
            base_grid, expected_networks, overlap_ratio_target=overlap_ratio
        )
        self._lock = threading.Lock()
        self._assignments: Dict[str, Assignment] = {}
        self._free: List[int] = list(range(len(self.allocations)))
        # Exactly-once bookkeeping: request_id -> its journaled op
        # record, bounded to the *latest* request per operator (the
        # only one a client can still be retrying); the eviction is a
        # pure function of the record sequence, so journal replay
        # rebuilds the identical cache.
        self._completed: Dict[str, Dict[str, Any]] = {}
        self._latest_request: Dict[str, str] = {}
        self._seq = 0  # last applied journal sequence number
        self._epoch = 0  # incarnation counter, bumped by recover()
        self._read_only = False
        self.journal = journal
        if journal is not None:
            journal.ensure_header(self._config_dict())

    # -- configuration -----------------------------------------------------

    def _config_dict(self) -> Dict[str, Any]:
        """The constructor arguments, JSON-safe (journal header payload)."""
        return {
            "grid": {
                "start_hz": self.base_grid.start_hz,
                "width_hz": self.base_grid.width_hz,
                "spacing_hz": self.base_grid.spacing_hz,
                "bandwidth_hz": self.base_grid.bandwidth_hz,
            },
            "expected_networks": self.expected_networks,
            "overlap_ratio": self.overlap_ratio,
        }

    @property
    def epoch(self) -> int:
        """The Master's incarnation counter (bumps on every recovery)."""
        return self._epoch

    @property
    def read_only(self) -> bool:
        """Whether the Master is refusing mutations (journal failure)."""
        return self._read_only

    # -- mutations ---------------------------------------------------------

    def register(
        self, operator: str, request_id: Optional[str] = None
    ) -> Assignment:
        """Register an operator and hand out its channel allocation.

        Re-registering an operator returns its existing assignment
        (idempotent, so operators may safely retry over flaky links);
        with a ``request_id`` the retry is answered from the journaled
        completion record even across a Master restart.

        Raises:
            RegionFullError: when all allocations are occupied.
            MasterReadOnlyError: while the Master cannot persist state.
        """
        if not operator:
            raise ValueError("operator name must be non-empty")
        with self._lock:
            replayed = self._completed_response(request_id, operator)
            if replayed is not None:
                return replayed
            self._check_writable()
            existing = self._assignments.get(operator)
            if existing is not None:
                if request_id is not None:
                    self._commit(
                        {
                            "kind": "op",
                            "seq": self._seq + 1,
                            "op": "register",
                            "operator": operator,
                            "slot": existing.slot,
                            "lease": existing.lease,
                            "request_id": request_id,
                        }
                    )
                return existing
            if not self._free:
                raise RegionFullError(
                    f"region already hosts {len(self.allocations)} networks"
                )
            index = self._free[0]
            seq = self._seq + 1
            record = {
                "kind": "op",
                "seq": seq,
                "op": "register",
                "operator": operator,
                "slot": index,
                "lease": _mint_lease(operator, index, seq),
                "request_id": request_id,
            }
            self._commit(record)
            return self._assignments[operator]

    def release(self, operator: str, request_id: Optional[str] = None) -> bool:
        """Release an operator's allocation; returns whether it was held.

        With a ``request_id`` the outcome is journaled, so a retried
        release reports the original verdict instead of ``False``.

        Raises:
            MasterReadOnlyError: while the Master cannot persist state.
        """
        with self._lock:
            replayed = self._completed.get(request_id or "")
            if (
                replayed is not None
                and replayed.get("operator") == operator
                and replayed.get("op") == "release"
            ):
                return bool(replayed.get("held"))
            self._check_writable()
            assignment = self._assignments.get(operator)
            held = assignment is not None
            if not held and request_id is None:
                # Releasing nothing mutates nothing: skip the journal.
                return False
            self._commit(
                {
                    "kind": "op",
                    "seq": self._seq + 1,
                    "op": "release",
                    "operator": operator,
                    "held": held,
                    "request_id": request_id,
                }
            )
            return held

    # -- reads -------------------------------------------------------------

    def resume(self, operator: str, lease: str) -> Assignment:
        """Revalidate a reconnecting operator's lease.

        A read-only operation: it works in degraded mode and across
        restarts (leases are re-minted identically by journal replay).

        Raises:
            LeaseError: with ``code="unknown_operator"`` when no
                assignment is held, or ``code="lease_stale"`` when the
                presented token does not match the current grant.
        """
        with self._lock:
            assignment = self._assignments.get(operator)
            if assignment is None:
                raise LeaseError(
                    f"operator {operator!r} holds no assignment; re-register",
                    code="unknown_operator",
                )
            if lease != assignment.lease:
                raise LeaseError(
                    f"stale lease for operator {operator!r}",
                    code="lease_stale",
                )
            return assignment

    def status(self) -> Dict[str, object]:
        """Occupancy snapshot of the region."""
        with self._lock:
            return {
                "slots": len(self.allocations),
                "occupied": len(self._assignments),
                "free": len(self._free),
                "operators": {
                    op: a.slot for op, a in sorted(self._assignments.items())
                },
                "epoch": self._epoch,
                "journal_seq": self._seq,
                "read_only": self._read_only,
            }

    def assignment_of(self, operator: str) -> Optional[Assignment]:
        """Look up an operator's current assignment."""
        with self._lock:
            return self._assignments.get(operator)

    # -- write-ahead commit path -------------------------------------------

    def _check_writable(self) -> None:
        if self._read_only:
            raise MasterReadOnlyError(
                "master is read-only: state journal unavailable"
            )

    def _completed_response(
        self, request_id: Optional[str], operator: str
    ) -> Optional[Assignment]:
        """The recorded answer for an already-executed register request."""
        if request_id is None:
            return None
        record = self._completed.get(request_id)
        if record is None or record.get("operator") != operator:
            return None
        if record.get("op") != "register":
            return None
        return self._assignment_from_record(record)

    def _commit(self, record: Dict[str, Any]) -> None:
        """Write-ahead journal ``record``, then apply it to memory.

        A journal failure flips the Master to read-only mode and
        surfaces as :class:`MasterReadOnlyError`; the in-memory state
        is untouched, so what the Master answers always matches what
        the journal can replay.
        """
        if self.journal is not None:
            try:
                self.journal.append(record)
            except JournalError as exc:
                self._read_only = True
                self._emit_readonly(str(exc))
                raise MasterReadOnlyError(
                    f"journal write failed; master now read-only: {exc}"
                ) from exc
        self._apply_record(record)

    def _emit_readonly(self, reason: str) -> None:
        logger.error("master flipping to read-only mode: %s", reason)
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(EventType.MASTER_READONLY, reason=reason[:120])
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_master_readonly_total",
                "journal failures flipping the Master read-only",
            ).inc()

    def _assignment_from_record(self, record: Dict[str, Any]) -> Assignment:
        index = int(record["slot"])
        alloc = self.allocations[index]
        return Assignment(
            operator=str(record["operator"]),
            slot=index,
            shift_hz=alloc.shift_hz,
            grid=alloc.grid,
            channel_indices=alloc.channel_indices,
            lease=str(record.get("lease", "")),
            epoch=self._epoch,
        )

    def _apply_record(self, record: Dict[str, Any]) -> None:
        """Apply one journaled op to the in-memory tables (commit/replay)."""
        op = record.get("op")
        operator = str(record.get("operator", ""))
        if op == "register":
            if operator not in self._assignments:
                index = int(record["slot"])
                if index in self._free:
                    self._free.remove(index)
                self._assignments[operator] = self._assignment_from_record(
                    record
                )
        elif op == "release":
            if record.get("held") and operator in self._assignments:
                assignment = self._assignments.pop(operator)
                self._free.append(assignment.slot)
                self._free.sort()
        request_id = record.get("request_id")
        if isinstance(request_id, str) and request_id:
            # Keep only the operator's newest request: an older one can
            # no longer be retried once the client issued a newer ID,
            # so the cache stays bounded by the operator count.
            previous = self._latest_request.get(operator)
            if previous is not None and previous != request_id:
                self._completed.pop(previous, None)
            self._latest_request[operator] = request_id
            self._completed[request_id] = record
        self._seq = int(record["seq"])

    # -- snapshot / restore / recover --------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The node's complete durable state, JSON-safe and canonical.

        Two nodes with the same history produce byte-identical
        ``json.dumps(snapshot, sort_keys=True)`` output — the failover
        drill's "same state after ``kill -9``" check compares exactly
        that.
        """
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA_VERSION,
                "seq": self._seq,
                "epoch": self._epoch,
                "config": self._config_dict(),
                "assignments": {
                    op: {"slot": a.slot, "lease": a.lease}
                    for op, a in sorted(self._assignments.items())
                },
                "free": list(self._free),
                "completed": {
                    rid: dict(rec)
                    for rid, rec in sorted(self._completed.items())
                },
            }

    def snapshot_to(self, path: str) -> None:
        """Atomically persist :meth:`snapshot` to ``path``."""
        write_snapshot(path, self.snapshot())

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        journal: Optional[StateJournal] = None,
    ) -> "MasterNode":
        """Rebuild a node from a :meth:`snapshot` payload."""
        config = snapshot["config"]
        node = cls(
            ChannelGrid(**config["grid"]),
            expected_networks=int(config["expected_networks"]),
            overlap_ratio=config.get("overlap_ratio"),
            journal=journal,
        )
        node._epoch = int(snapshot.get("epoch", 0))
        node._seq = int(snapshot.get("seq", 0))
        node._free = [int(i) for i in snapshot.get("free", [])]
        for operator, info in snapshot.get("assignments", {}).items():
            node._assignments[operator] = node._assignment_from_record(
                {"operator": operator, **info}
            )
        node._completed = {
            str(rid): dict(rec)
            for rid, rec in snapshot.get("completed", {}).items()
        }
        for rid, rec in sorted(
            node._completed.items(),
            key=lambda item: int(item[1].get("seq", 0)),
        ):
            op_name = str(rec.get("operator", ""))
            if op_name:
                node._latest_request[op_name] = rid
        return node

    @classmethod
    def recover(
        cls,
        journal_path: str,
        snapshot_path: Optional[str] = None,
        fsync: bool = True,
    ) -> "MasterNode":
        """Rebuild the Master after a crash: snapshot + journal replay.

        Loads the latest usable snapshot (if any), replays every
        journal record past its sequence number, bumps the epoch, and
        reopens the journal for appending — the node answers requests
        with the exact state it held when the previous incarnation
        died, duplicate-retry answers included.  A torn journal tail is
        truncated off the file before the journal is reopened, so the
        new incarnation's first append cannot concatenate onto the
        fragment; the bumped epoch is journaled as a ``recovery``
        record, so it stays strictly monotonic across incarnations even
        when no snapshot exists.

        Raises:
            JournalError: when neither a snapshot nor a journal header
                is available, committed records are corrupt, or the
                reopened journal rejects the recovery record.
        """
        records = StateJournal.replay(journal_path, repair=True)
        snap = read_snapshot(snapshot_path) if snapshot_path else None
        if snap is not None:
            node = cls.restore(snap)
        else:
            header = next(
                (r for r in records if r.get("kind") == "header"), None
            )
            if header is None:
                raise JournalError(
                    f"cannot recover: no snapshot and no journal header "
                    f"in {journal_path!r}"
                )
            config = header["config"]
            node = cls(
                ChannelGrid(**config["grid"]),
                expected_networks=int(config["expected_networks"]),
                overlap_ratio=config.get("overlap_ratio"),
            )
        replayed = 0
        for record in records:
            kind = record.get("kind")
            if kind == "recovery":
                # Epochs are journaled so they survive journal-only
                # recovery (no snapshot); max() keeps them monotonic
                # whether or not a newer snapshot was loaded.
                node._epoch = max(node._epoch, int(record.get("epoch", 0)))
                continue
            if kind != "op":
                # Header, and the ``trace_ctx`` records older drills
                # journaled: no state to apply.
                continue
            if int(record.get("seq", 0)) <= node._seq:
                continue
            node._apply_record(record)
            replayed += 1
        node._epoch += 1
        node._read_only = False
        # Assignments restored into the new incarnation carry its epoch.
        node._assignments = {
            op: replace(a, epoch=node._epoch)
            for op, a in node._assignments.items()
        }
        node.journal = StateJournal(journal_path, fsync=fsync)
        node.journal.ensure_header(node._config_dict())
        node.journal.append(
            {"kind": "recovery", "seq": node._seq, "epoch": node._epoch}
        )
        logger.info(
            "master recovered from %s: seq=%d, %d record(s) replayed, "
            "epoch=%d, %d operator(s)",
            journal_path,
            node._seq,
            replayed,
            node._epoch,
            len(node._assignments),
        )
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(
                EventType.MASTER_RECOVERED,
                seq=node._seq,
                replayed=replayed,
                epoch=node._epoch,
                operators=len(node._assignments),
            )
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_master_recoveries_total",
                "Master crash recoveries (snapshot + journal replay)",
            ).inc()
        return node
