"""Performance observatory: determinism, sampling math, reporting.

The probe's contract (DESIGN.md §13): exact phase counters that are
byte-identical for a seeded run at any sampling rate, every wall-clock
reading confined to the report's ``wall`` section (which the regress
volatile-key filter drops wholesale), and zero effect on the simulation
— attaching a probe must not change a single trace byte.
"""

import json

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.fig02 import run_fig2a
from repro.obs import observe, runtime
from repro.obs.perf import (
    PHASES,
    PerfProbe,
    Phase,
    PhaseStat,
    perf_count,
    phase_timed,
    profile_hotspots,
    render_hotspots,
    render_phase_table,
    render_throughput,
    run_profiled,
)
from repro.obs.regress import compare_metrics, metrics_from_result


class TestPhaseStat:
    def test_counts_exact_timing_sampled(self):
        stat = PhaseStat("p", sample_every=3)
        for i in range(7):
            stat.end(stat.begin(), items=2)
        assert stat.calls == 7
        assert stat.items == 14
        # Calls 0, 3 and 6 are sampled.
        assert stat.sampled == 3
        assert stat.sampled_items == 6

    def test_est_wall_scales_by_items(self):
        stat = PhaseStat("p", sample_every=1)
        stat.calls, stat.items = 4, 40
        stat.sampled, stat.sampled_items = 2, 10
        stat.sampled_wall_s = 0.5
        # 0.05 s/item * 40 items.
        assert stat.est_wall_s() == pytest.approx(2.0)

    def test_est_wall_falls_back_to_calls(self):
        stat = PhaseStat("p", sample_every=1)
        stat.calls, stat.sampled, stat.sampled_wall_s = 10, 5, 1.0
        assert stat.est_wall_s() == pytest.approx(2.0)

    def test_unsampled_estimates_zero(self):
        assert PhaseStat("p").est_wall_s() == 0.0


class TestHooksWithoutProbe:
    def test_phase_timed_is_noop(self):
        assert runtime.PERF is None
        with phase_timed(Phase.DETECT, items=5) as pt:
            pt.items = 9  # adjustable inside the block, still a no-op

    def test_perf_count_is_noop(self):
        assert runtime.PERF is None
        perf_count(Phase.PHY_DECODE, 3)


class TestProbeLifecycle:
    def test_attach_owns_and_releases_slot(self):
        probe = PerfProbe()
        with probe.attach():
            assert runtime.PERF is probe
        assert runtime.PERF is None

    def test_double_attach_raises(self):
        with PerfProbe().attach():
            with pytest.raises(RuntimeError):
                with PerfProbe().attach():
                    pass

    def test_probe_survives_runtime_deactivate(self):
        # The perf slot has its own lifecycle: observe() teardown must
        # not detach a probe wrapping the whole session.
        probe = PerfProbe()
        with probe.attach():
            with observe(trace=True):
                pass
            assert runtime.PERF is probe

    def test_memory_tracking(self):
        probe = PerfProbe(track_memory=True)
        with probe.attach():
            blob = [0] * 50_000
            del blob
        assert probe.memory_peak_kb is not None
        assert probe.memory_peak_kb > 100  # the 50k-int list alone


class TestDeterminism:
    def test_same_seed_identical_deterministic_section(self):
        reports = []
        for _ in range(2):
            probe = PerfProbe(sample_every=4)
            with probe.attach():
                run_fig2a()
            reports.append(probe.report())
        assert reports[0]["deterministic"] == reports[1]["deterministic"]

    def test_sampling_rate_does_not_change_counters(self):
        sections = []
        for sample_every in (1, 16):
            probe = PerfProbe(sample_every=sample_every)
            with probe.attach():
                run_fig2a()
            det = probe.report()["deterministic"]
            det.pop("sample_every")
            sections.append(det)
        assert sections[0] == sections[1]

    def test_probe_never_touches_results_or_trace(self):
        baselines = []
        for attach_probe in (False, True):
            with observe(trace=True) as session:
                if attach_probe:
                    with PerfProbe().attach():
                        result = run_fig2a()
                else:
                    result = run_fig2a()
            baselines.append((result, session.recorder.to_jsonl()))
        assert baselines[0][0] == baselines[1][0]
        assert baselines[0][1] == baselines[1][1]  # byte-identical trace

    def test_phases_cover_the_pipeline(self):
        probe = PerfProbe()
        with probe.attach():
            run_fig2a()
        recorded = set(probe.report()["deterministic"]["phases"])
        expected = {
            Phase.OBSERVE,
            Phase.DETECT,
            Phase.DISPATCH,
            Phase.DECODE,
            Phase.COLLECT,
            Phase.EMIT,
        }
        assert expected <= recorded
        assert recorded <= set(PHASES)

    def test_chaos_phases_time_the_upgrade_and_retransmissions(self):
        probe = PerfProbe()
        with probe.attach():
            run_chaos(seed=0, fast=True)
        phases = probe.report()["deterministic"]["phases"]
        assert set(phases) <= set(PHASES)
        assert phases[Phase.PLAN] == {"calls": 1, "items": 24}
        for phase in (Phase.SYNC, Phase.DISTRIBUTE, Phase.REBOOT):
            assert phases[phase]["calls"] == 1
        assert phases[Phase.RETRANSMIT] == {"calls": 2, "items": 11}


class TestReport:
    def _report(self):
        probe = PerfProbe()
        with probe.attach():
            run_fig2a()
        return probe.report()

    def test_wall_clock_confined_to_wall_section(self):
        report = self._report()
        flat = metrics_from_result({"perf": report})
        assert not any("wall" in key for key in flat)
        assert flat["perf.deterministic.events"] > 0

    def test_regress_passes_across_wall_jitter(self):
        report_a, report_b = self._report(), self._report()
        # Wall sections differ run to run; the comparison must not care.
        assert report_a["wall"] != report_b["wall"]
        checks = compare_metrics(
            metrics_from_result({"perf": report_a}),
            metrics_from_result({"perf": report_b}),
        )
        assert checks and all(c["ok"] for c in checks)

    def test_shares_and_throughput(self):
        report = self._report()
        wall = report["wall"]
        assert wall["total_s"] > 0
        assert wall["events_per_s"] > 0
        assert 0 < wall["attributed_share"] <= 1.5  # estimate, not exact
        assert wall["attributed_s"] == pytest.approx(
            sum(p["est_s"] for p in wall["phases"].values())
        )

    def test_json_serializable(self):
        json.dumps(self._report())


class TestHotspotsAndRunProfiled:
    def test_profile_hotspots_rows(self):
        result, rows = profile_hotspots(lambda: sum(range(2000)), top_n=5)
        assert result == sum(range(2000))
        assert 0 < len(rows) <= 5
        assert {"func", "file", "line", "calls", "tottime_s"} <= set(rows[0])

    def test_run_profiled_full_report(self):
        result, report = run_profiled(run_fig2a, memory=True, top_n=3)
        assert result == run_fig2a()
        assert report["deterministic"]["runs"] == 18  # 2 arms x 9 loads
        assert len(report["wall"]["hotspots"]) <= 3
        assert report["wall"]["memory_peak_kb"] is not None

    def test_run_profiled_without_cprofile(self):
        _, report = run_profiled(run_fig2a, cprofile=False)
        assert "hotspots" not in report["wall"]


class TestLintAllowlist:
    def test_perf_module_is_telemetry(self):
        # perf.py reads perf_counter throughout; DET002 must treat it
        # as telemetry (wall readings land only in the "wall" section).
        import os

        from repro.lint import DEFAULT_CONFIG, lint_paths

        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        assert "src/repro/obs/perf.py" in DEFAULT_CONFIG.wall_clock_module_set
        report = lint_paths(["src/repro/obs/perf.py"], root=root)
        assert report.files_checked == 1
        assert [f for f in report.findings if f.rule_id == "DET002"] == []


class TestRenderers:
    def _report(self):
        _, report = run_profiled(run_fig2a, top_n=3)
        return report

    def test_phase_table(self):
        out = render_phase_table(self._report())
        assert "gw.decode" in out
        assert "attributed" in out
        # Canonical order: observe before detect before emit.
        lines = out.splitlines()
        order = [
            next(i for i, line in enumerate(lines) if line.startswith(name))
            for name in (Phase.OBSERVE, Phase.DETECT, Phase.EMIT)
        ]
        assert order == sorted(order)

    def test_phase_table_columns_line_up(self):
        # A name longer than the 16 characters the column once had.
        probe = PerfProbe()
        with probe.attach():
            for phase in (Phase.PLAN, Phase.DISTRIBUTE, Phase.RETRANSMIT):
                with phase_timed(phase, items=3):
                    pass
        lines = render_phase_table(probe.report()).splitlines()
        head, rows, total = lines[0], lines[2:-2], lines[-1]
        assert len(rows) == 3
        ends = {
            label: head.index(label) + len(label)
            for label in ("calls", "items", "est_ms", "us/item", "share")
        }

        def ends_at(line, end):
            return line[end - 1] != " " and line[end:end + 1] in ("", " ")

        for row in rows:
            assert all(ends_at(row, end) for end in ends.values()), row
        assert ends_at(total, ends["est_ms"]) and ends_at(total, ends["share"])

    def test_phase_table_empty(self):
        assert "no phases" in render_phase_table(PerfProbe().report(1.0))

    def test_hotspots_table(self):
        assert "own_ms" in render_hotspots(self._report())
        assert "no hotspot" in render_hotspots(PerfProbe().report(1.0))

    def test_throughput_block(self):
        out = render_throughput(self._report())
        assert "events/s" in out
        assert "attributed" in out
