"""MasterNode durability: journal commit, recovery, leases, read-only."""

import pytest

from repro.core.journal import (
    FailingJournal,
    JournalError,
    StateJournal,
)
from repro.core.master import (
    LeaseError,
    MasterNode,
    MasterReadOnlyError,
)


def _journaled_master(tmp_path, grid, networks=4):
    path = str(tmp_path / "journal.jsonl")
    journal = StateJournal(path)
    return MasterNode(grid, expected_networks=networks, journal=journal), path


class TestJournaledCommit:
    def test_mutations_are_journaled(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a")
        master.register("op-b")
        master.release("op-a")
        records = StateJournal.replay(path)
        kinds = [r.get("kind") for r in records]
        assert kinds[0] == "header"
        ops = [r["op"] for r in records if r.get("kind") == "op"]
        assert ops == ["register", "register", "release"]

    def test_reads_are_not_journaled(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a")
        before = len(StateJournal.replay(path))
        master.status()
        master.resume("op-a", master.assignment_of("op-a").lease)
        master.release("ghost")  # no-op without request_id
        assert len(StateJournal.replay(path)) == before


class TestRecovery:
    def test_recover_replays_full_journal(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        a = master.register("op-a")
        master.register("op-b")
        master.release("op-b")
        master.journal.close()  # "kill -9"

        revived = MasterNode.recover(path)
        assert revived.status()["operators"] == {"op-a": 0}
        held = revived.assignment_of("op-a")
        assert held.slot == a.slot
        assert held.lease == a.lease
        revived.journal.close()

    def test_recover_uses_snapshot_plus_tail(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        snap_path = str(tmp_path / "snap.json")
        master.register("op-a")
        master.snapshot_to(snap_path)
        master.register("op-b")  # only in the journal tail
        master.journal.close()

        revived = MasterNode.recover(path, snap_path)
        assert revived.status()["operators"] == {"op-a": 0, "op-b": 1}
        revived.journal.close()

    def test_corrupt_snapshot_falls_back_to_replay(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        snap_path = str(tmp_path / "snap.json")
        master.register("op-a")
        master.snapshot_to(snap_path)
        master.register("op-b")
        master.journal.close()
        with open(snap_path, "w", encoding="utf-8") as fh:
            fh.write("{broken")

        revived = MasterNode.recover(path, snap_path)
        assert revived.status()["operators"] == {"op-a": 0, "op-b": 1}
        revived.journal.close()

    def test_recover_without_journal_or_snapshot_fails(self, tmp_path):
        with pytest.raises(JournalError):
            MasterNode.recover(str(tmp_path / "void.jsonl"))

    def test_epoch_bumps_and_assignments_restamped(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        assert master.epoch == 0
        granted = master.register("op-a")
        assert granted.epoch == 0
        master.journal.close()

        revived = MasterNode.recover(path)
        assert revived.epoch == 1
        held = revived.assignment_of("op-a")
        assert held.epoch == 1
        assert held.lease == granted.lease  # lease survives re-minting
        revived.journal.close()

    def test_trace_ctx_records_of_older_drills_are_skipped(
        self, tmp_path, grid_16
    ):
        # Drills before trace schema v3 journaled their trace context
        # right after the header; recovery must apply only the ops.
        master, path = _journaled_master(tmp_path, grid_16)
        master.journal.append(
            {
                "kind": "trace_ctx",
                "ctx": {"run": "drill:7", "trace": "6f1c0e5d2a9b8c47",
                        "span": "b3a1d9e07c5f2468", "lam": 0},
            }
        )
        granted = [
            master.register(f"op-{i}", request_id=f"r{i}") for i in range(3)
        ]
        master.journal.close()

        revived = MasterNode.recover(path)
        for a in granted:
            held = revived.assignment_of(a.operator)
            assert (held.slot, held.lease) == (a.slot, a.lease)
        revived.journal.close()

    def test_recovered_state_identical_to_live(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a", request_id="r1")
        master.register("op-b", request_id="r2")
        master.release("op-a", request_id="r3")
        live = master.snapshot()
        master.journal.close()

        revived = MasterNode.recover(path)
        snap = revived.snapshot()
        for payload in (live, snap):
            payload.pop("epoch")
        assert live == snap
        revived.journal.close()

    def test_torn_tail_repaired_before_new_appends(self, tmp_path, grid_16):
        """A post-recovery grant must survive a *second* recovery.

        Without torn-tail truncation the fragment has no newline, so
        the first acked record of the new incarnation concatenates onto
        it and the next recovery silently drops that merged line —
        losing an acknowledged grant and re-freeing its slot.
        """
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a")
        master.journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"op","seq":2,"cr')  # crash mid-append

        revived = MasterNode.recover(path)
        granted = revived.register("op-b")  # acked + journaled
        revived.journal.close()

        revived2 = MasterNode.recover(path)
        assert revived2.status()["operators"] == {
            "op-a": 0,
            "op-b": granted.slot,
        }
        # The slot must not have been handed out again.
        extra = revived2.register("op-c")
        assert extra.slot not in (0, granted.slot)
        revived2.journal.close()

    def test_epoch_monotonic_without_snapshot(self, tmp_path, grid_16):
        """Journal-only recoveries must not reuse an epoch."""
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a")
        master.journal.close()

        first = MasterNode.recover(path)
        assert first.epoch == 1
        first.journal.close()

        second = MasterNode.recover(path)
        assert second.epoch == 2
        assert second.assignment_of("op-a").epoch == 2
        second.journal.close()

    def test_recovered_master_accepts_new_registrations(
        self, tmp_path, grid_16
    ):
        master, path = _journaled_master(tmp_path, grid_16, networks=3)
        master.register("op-a")
        master.journal.close()
        revived = MasterNode.recover(path)
        b = revived.register("op-b")
        assert b.slot == 1
        assert b.epoch == revived.epoch
        revived.journal.close()


class TestExactlyOnce:
    def test_retry_same_request_id_not_reallocated(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        first = master.register("op-a", request_id="req-1")
        again = master.register("op-a", request_id="req-1")
        assert again.slot == first.slot
        assert master.status()["occupied"] == 1

    def test_retry_answered_across_restart(self, tmp_path, grid_16):
        """The crash window: applied + journaled, reply lost, retried."""
        master, path = _journaled_master(tmp_path, grid_16)
        first = master.register("op-a", request_id="req-1")
        master.journal.close()  # dies before the reply leaves

        revived = MasterNode.recover(path)
        again = revived.register("op-a", request_id="req-1")
        assert again.slot == first.slot
        assert again.lease == first.lease
        assert revived.status()["occupied"] == 1
        revived.journal.close()

    def test_release_retry_reports_original_outcome(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a")
        assert master.release("op-a", request_id="rel-1") is True
        # The retry must NOT say False just because the slot is gone.
        assert master.release("op-a", request_id="rel-1") is True
        # A genuinely new release sees the true current state.
        assert master.release("op-a", request_id="rel-2") is False

    def test_request_id_bound_to_operator(self, tmp_path, grid_16):
        """A colliding id from another operator must not replay."""
        master, _ = _journaled_master(tmp_path, grid_16)
        master.register("op-a", request_id="shared")
        b = master.register("op-b", request_id="shared")
        assert b.operator == "op-b"
        assert b.slot == 1

    def test_release_ignores_register_completion_record(
        self, tmp_path, grid_16
    ):
        """A register's id presented on a release must not be replayed.

        The cached record is for a different op kind, so the release
        executes for real instead of silently answering ``False`` while
        the operator keeps its slot.
        """
        master, _ = _journaled_master(tmp_path, grid_16)
        master.register("op-a", request_id="r1")
        assert master.release("op-a", request_id="r1") is True
        assert master.assignment_of("op-a") is None

    def test_completion_cache_bounded_per_operator(self, tmp_path, grid_16):
        """Only the newest request per operator stays cached."""
        master, _ = _journaled_master(tmp_path, grid_16)
        for i in range(25):
            master.register("op-a", request_id=f"reg-{i}")
            master.release("op-a", request_id=f"rel-{i}")
        snap = master.snapshot()
        assert list(snap["completed"]) == ["rel-24"]
        # The retained id still replays its original outcome.
        assert master.release("op-a", request_id="rel-24") is True


class TestLeases:
    def test_resume_validates_lease(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        granted = master.register("op-a")
        resumed = master.resume("op-a", granted.lease)
        assert resumed.slot == granted.slot

    def test_resume_unknown_operator(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        with pytest.raises(LeaseError) as excinfo:
            master.resume("ghost", "any")
        assert excinfo.value.code == "unknown_operator"

    def test_resume_stale_lease(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        master.register("op-a")
        with pytest.raises(LeaseError) as excinfo:
            master.resume("op-a", "forged")
        assert excinfo.value.code == "lease_stale"

    def test_lease_unique_per_grant(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        a = master.register("op-a")
        master.release("op-a")
        b = master.register("op-a")  # same operator, new grant
        assert b.lease != a.lease


class TestReadOnlyMode:
    def test_journal_failure_flips_read_only(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        master.register("op-a")
        master.journal = FailingJournal()
        with pytest.raises(MasterReadOnlyError):
            master.register("op-b")
        assert master.read_only
        assert master.status()["read_only"] is True

    def test_read_only_memory_untouched(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        master.register("op-a")
        master.journal = FailingJournal()
        with pytest.raises(MasterReadOnlyError):
            master.register("op-b")
        # The failed mutation must not have half-applied.
        assert master.status()["occupied"] == 1
        assert master.assignment_of("op-b") is None

    def test_reads_still_work_read_only(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        granted = master.register("op-a")
        master.journal = FailingJournal()
        with pytest.raises(MasterReadOnlyError):
            master.register("op-b")
        assert master.resume("op-a", granted.lease).slot == granted.slot
        assert master.status()["occupied"] == 1

    def test_release_rejected_read_only(self, grid_16):
        master = MasterNode(grid_16, expected_networks=2)
        master.register("op-a")
        master.journal = FailingJournal()
        with pytest.raises(MasterReadOnlyError):
            master.register("op-x")
        with pytest.raises(MasterReadOnlyError):
            master.release("op-a")

    def test_recovery_clears_read_only(self, tmp_path, grid_16):
        master, path = _journaled_master(tmp_path, grid_16)
        master.register("op-a")
        good_journal = master.journal
        master.journal = FailingJournal()
        with pytest.raises(MasterReadOnlyError):
            master.register("op-b")
        good_journal.close()

        revived = MasterNode.recover(path)
        assert not revived.read_only
        assert revived.register("op-b").slot == 1
        revived.journal.close()
