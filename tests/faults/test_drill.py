"""Failover drill: crash the Master mid-campaign, assert crash safety."""

import pytest

from repro.faults.drill import DrillReport, run_drill
from repro.faults.plan import MasterCrash


class TestMasterCrashFault:
    def test_crash_point_must_be_positive(self):
        with pytest.raises(ValueError):
            MasterCrash(at_request=0)

    def test_roundtrips_through_plan_dict(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(seed=3, master_crashes=(MasterCrash(at_request=5),))
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan


class TestRunDrill:
    def test_drill_passes_and_reports(self, tmp_path, grid_16):
        report = run_drill(
            grid_16,
            out_dir=str(tmp_path),
            seed=11,
            operators=4,
            crash_at_request=3,
            snapshot_after=1,
            max_recovery_s=30.0,
        )
        assert report.passed, report.failures
        assert report.duplicate_grants == 0
        assert report.lost_assignments == 0
        assert report.retry_reanswered
        assert report.status_identical
        assert report.replay_identical
        assert report.stale_lease_rejected
        assert report.resumes_ok == 4
        assert report.epoch_after == report.epoch_before + 1
        assert report.client_retries >= 1
        assert report.recovery_wall_s > 0.0

    def test_drill_without_snapshot_replays_journal_only(
        self, tmp_path, grid_16
    ):
        report = run_drill(
            grid_16,
            out_dir=str(tmp_path),
            seed=2,
            operators=3,
            crash_at_request=2,
            snapshot_after=0,
        )
        assert report.passed, report.failures
        assert report.snapshot_seq is not None

    def test_report_is_json_safe(self, tmp_path, grid_16):
        import json

        report = run_drill(
            grid_16,
            out_dir=str(tmp_path),
            seed=0,
            operators=3,
            crash_at_request=2,
            snapshot_after=1,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True

    def test_deterministic_apart_from_wall_clock(self, tmp_path, grid_16):
        def run(sub):
            report = run_drill(
                grid_16,
                out_dir=str(tmp_path / sub),
                seed=5,
                operators=4,
                crash_at_request=3,
                snapshot_after=1,
            )
            out = report.to_dict()
            out.pop("recovery_wall_s")
            return out

        assert run("a") == run("b")

    def test_bad_crash_point_rejected(self, tmp_path, grid_16):
        with pytest.raises(ValueError):
            run_drill(
                grid_16,
                out_dir=str(tmp_path),
                operators=3,
                crash_at_request=9,
            )

    def test_snapshot_must_precede_crash(self, tmp_path, grid_16):
        with pytest.raises(ValueError):
            run_drill(
                grid_16,
                out_dir=str(tmp_path),
                operators=4,
                crash_at_request=2,
                snapshot_after=3,
            )

    def test_recovery_budget_enforced(self, tmp_path, grid_16):
        report = run_drill(
            grid_16,
            out_dir=str(tmp_path),
            seed=1,
            operators=3,
            crash_at_request=2,
            snapshot_after=1,
            max_recovery_s=0.0,  # impossible budget
        )
        assert not report.passed
        assert any("recovery took" in f for f in report.failures)


class TestDrillReport:
    def test_passed_tracks_failures(self):
        report = DrillReport(
            seed=0, operators=1, crash_at_request=1, snapshot_after=0
        )
        assert report.passed
        report.failures.append("boom")
        assert not report.passed
        assert report.to_dict()["passed"] is False
