"""Failover drill: kill the Master mid-campaign, prove nothing is lost.

The drill is the executable form of the crash-safety contract in
``DESIGN.md`` §11.  It runs a real TCP Master with a write-ahead
journal, registers a fleet of operators, and — per the seeded
:class:`~repro.faults.plan.FaultPlan` — has the Master die *after
applying* one of the registrations but *before replying* (the
:class:`~repro.faults.plan.MasterCrash` fault, i.e. the worst spot a
``kill -9`` can land).  The orphaned client retries with the same
request id while the drill recovers a fresh Master from snapshot +
journal replay on the same address.  The drill then asserts:

* **No lost assignments** — every operator registered before the crash
  holds the same slot and lease on the recovered Master.
* **No duplicate grants** — the retried registration is answered from
  the journal, not re-allocated; every slot is granted exactly once.
* **Identical state** — the recovered Master's status matches the dead
  incarnation's final status (everything but the bumped epoch), and a
  second independent replay of the journal reproduces the same
  snapshot byte-for-byte.
* **Leases survive** — every operator's pre-crash lease still
  validates via ``resume``, now stamped with the new epoch; a forged
  lease is rejected with ``lease_stale``.
* **Bounded recovery** — snapshot load + journal replay + re-listen
  completes within the drill's recovery budget.

Deterministic by construction: recovery happens inside the retrying
client's injected backoff sleep, so there is no wall-clock race between
the crash, the retry, and the new listener.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..core.journal import StateJournal
from ..core.master import MasterNode
from ..core.master_client import MasterClient, MasterRequestError
from ..core.master_server import MasterServer
from ..phy.channels import ChannelGrid
from .plan import FaultPlan, MasterCrash
from .retry import RetryPolicy

logger = logging.getLogger(__name__)

__all__ = ["DrillReport", "run_drill"]

# Aggressive but bounded: the drill's Master lives on localhost, so
# retries are cheap and the whole drill stays sub-second.
_DRILL_RETRY = RetryPolicy(
    max_attempts=4,
    base_delay_s=0.01,
    multiplier=2.0,
    max_delay_s=0.05,
    jitter_frac=0.5,
    deadline_s=10.0,
)


@dataclass
class DrillReport:
    """Outcome of one failover drill (JSON-safe via :meth:`to_dict`).

    ``recovery_wall_s`` is the only wall-clock field; everything else
    is seed-deterministic, so two drills under the same seed produce
    identical reports apart from it.
    """

    seed: int
    operators: int
    crash_at_request: int
    snapshot_after: int
    journal_ops: int = 0
    snapshot_seq: Optional[int] = None
    epoch_before: int = 0
    epoch_after: int = 0
    recovery_wall_s: float = 0.0
    max_recovery_s: Optional[float] = None
    lost_assignments: int = 0
    duplicate_grants: int = 0
    retry_reanswered: bool = False
    status_identical: bool = False
    replay_identical: bool = False
    resumes_ok: int = 0
    stale_lease_rejected: bool = False
    read_only_after: bool = False
    client_retries: int = 0
    client_reconnects: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every crash-safety invariant held."""
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["passed"] = self.passed
        return out


def _check(report: DrillReport, ok: bool, label: str) -> None:
    if not ok:
        report.failures.append(label)


@dataclass
class _Incarnation:
    """State handed from the recovery hook back to the drill body."""

    master2: Optional[MasterNode] = None
    server2: Optional[MasterServer] = None
    status_at_crash: Dict[str, object] = field(default_factory=dict)
    status_after_recovery: Dict[str, object] = field(default_factory=dict)


def run_drill(
    grid: ChannelGrid,
    out_dir: str,
    seed: int = 0,
    operators: int = 6,
    crash_at_request: int = 4,
    snapshot_after: int = 2,
    max_recovery_s: Optional[float] = None,
) -> DrillReport:
    """Run one crash-restart failover drill; returns its report.

    Args:
        grid: Regional channel grid the Master divides.
        out_dir: Scratch directory for the journal and snapshot (both
            are recreated; existing drill files are overwritten).
        seed: Fault-plan seed (also seeds the client's retry jitter and
            request-id streams).
        operators: Fleet size; one ``register`` request each.
        crash_at_request: Which request the Master dies on (1-based;
            applied + journaled, reply withheld).
        snapshot_after: Take the snapshot after this many registers, so
            recovery exercises snapshot *plus* journal-tail replay.
        max_recovery_s: Optional wall-clock budget for the recovery;
            exceeding it is a drill failure.
    """
    if not 1 <= crash_at_request <= operators:
        raise ValueError("crash point must fall within the register campaign")
    if not 0 <= snapshot_after < crash_at_request:
        raise ValueError("snapshot must precede the crash point")
    os.makedirs(out_dir, exist_ok=True)
    journal_path = os.path.join(out_dir, "master-journal.jsonl")
    snapshot_path = os.path.join(out_dir, "master-snapshot.json")
    for path in (journal_path, snapshot_path):
        if os.path.exists(path):
            os.remove(path)

    report = DrillReport(
        seed=seed,
        operators=operators,
        crash_at_request=crash_at_request,
        snapshot_after=snapshot_after,
        max_recovery_s=max_recovery_s,
    )
    names = [f"op-{i:02d}" for i in range(operators)]
    plan = FaultPlan(
        seed=seed, master_crashes=(MasterCrash(at_request=crash_at_request),)
    )

    journal = StateJournal(journal_path)
    master1 = MasterNode(grid, expected_networks=operators, journal=journal)
    server1 = MasterServer(master1, fault_plan=plan).start()
    address = server1.address
    report.epoch_before = master1.epoch

    # Recovery state, filled in by the client's backoff hook: the crash
    # severs the retrying client's connection, and the *backoff sleep*
    # before its retry is where the drill performs the restart — the
    # retry then lands on the recovered Master, race-free.
    incarnation = _Incarnation()

    def recover_during_backoff(_delay_s: float) -> None:
        if incarnation.master2 is not None:
            return
        incarnation.status_at_crash = master1.status()
        t0 = time.perf_counter()  # repro: noqa[DET002]
        master2 = MasterNode.recover(journal_path, snapshot_path)
        server2 = MasterServer(
            master2, host=address[0], port=address[1]
        ).start()
        report.recovery_wall_s = time.perf_counter() - t0  # repro: noqa[DET002]
        incarnation.master2 = master2
        incarnation.server2 = server2
        # Captured *before* the retry lands: the recovered incarnation
        # must already hold the dead one's exact state.
        incarnation.status_after_recovery = master2.status()
        logger.info(
            "drill: master recovered on %s in %.4f s (epoch %d)",
            address,
            report.recovery_wall_s,
            master2.epoch,
        )

    client = MasterClient(
        address,
        timeout_s=5.0,
        retry=_DRILL_RETRY,
        retry_seed=seed,
        sleep=recover_during_backoff,
    )
    try:
        assignments = {}
        for i, operator in enumerate(names):
            assignments[operator] = client.register(operator)
            if i + 1 == snapshot_after:
                master1.snapshot_to(snapshot_path)

        master2 = incarnation.master2
        _check(report, master2 is not None, "master never crashed/recovered")
        if master2 is None:
            return report
        report.epoch_after = master2.epoch
        report.client_retries = client.retries
        report.client_reconnects = client.reconnects

        # Identical state: the recovered incarnation answers with the
        # dead one's exact final status, epoch aside.
        status_at_crash = dict(incarnation.status_at_crash)
        status_after_recovery = dict(incarnation.status_after_recovery)
        status_at_crash.pop("epoch", None)
        status_after_recovery.pop("epoch", None)
        _check(
            report,
            status_at_crash == status_after_recovery,
            "recovered status differs from pre-crash status",
        )
        report.status_identical = status_at_crash == status_after_recovery

        # No duplicate grants, no lost assignments.
        slots = [a.slot for a in assignments.values()]
        report.duplicate_grants = len(slots) - len(set(slots))
        _check(report, report.duplicate_grants == 0, "duplicate slot grants")
        lost = 0
        for operator, granted in assignments.items():
            held = master2.assignment_of(operator)
            if (
                held is None
                or held.slot != granted.slot
                or held.lease != granted.lease
            ):
                lost += 1
        report.lost_assignments = lost
        _check(report, lost == 0, "assignments lost or rewritten by recovery")

        # The crashed-on request was re-answered from the journal: the
        # client retried it (same request id) and got the slot the dead
        # incarnation had already journaled.
        crashed_op = names[crash_at_request - 1]
        journaled = master2.assignment_of(crashed_op)
        report.retry_reanswered = (
            report.client_retries >= 1
            and journaled is not None
            and journaled.slot == assignments[crashed_op].slot
        )
        _check(
            report,
            report.retry_reanswered,
            "retried register was not answered from the journal",
        )

        # Leases survive recovery; forged leases do not.
        for operator, granted in sorted(assignments.items()):
            resumed = client.resume(operator, granted.lease)
            if resumed.epoch == master2.epoch and resumed.slot == granted.slot:
                report.resumes_ok += 1
        _check(
            report,
            report.resumes_ok == operators,
            "lease resume failed after recovery",
        )
        try:
            client.resume(names[0], "forged-lease")
        except MasterRequestError as exc:
            report.stale_lease_rejected = exc.code == "lease_stale"
        _check(
            report,
            report.stale_lease_rejected,
            "forged lease was not rejected as stale",
        )

        report.read_only_after = master2.read_only
        _check(report, not master2.read_only, "master read-only after drill")

        if max_recovery_s is not None:
            _check(
                report,
                report.recovery_wall_s <= max_recovery_s,
                f"recovery took {report.recovery_wall_s:.4f} s "
                f"(budget {max_recovery_s:.4f} s)",
            )

        # Replay determinism: an independent recovery from the same
        # journal + snapshot reproduces the state byte-for-byte.
        records = StateJournal.replay(journal_path)
        report.journal_ops = sum(1 for r in records if r.get("kind") == "op")
        snap = master2.snapshot()
        replayed = MasterNode.recover(journal_path, snapshot_path)
        try:
            resnap = replayed.snapshot()
            report.snapshot_seq = int(snap["seq"])
            for s in (snap, resnap):
                s.pop("epoch", None)
            report.replay_identical = json.dumps(
                snap, sort_keys=True
            ) == json.dumps(resnap, sort_keys=True)
        finally:
            if replayed.journal is not None:
                replayed.journal.close()
        _check(
            report,
            report.replay_identical,
            "independent journal replay diverged",
        )
        return report
    finally:
        client.close()
        if incarnation.server2 is not None:
            incarnation.server2.close()
        server1.close()
        if (
            incarnation.master2 is not None
            and incarnation.master2.journal is not None
        ):
            incarnation.master2.journal.close()
        journal.close()
