"""Tests for the CLI and the ASCII chart renderer."""

import json
import os
import subprocess
import sys

import pytest

from repro.tools.ascii_chart import bar_chart, line_chart
from repro.tools.cli import EXPERIMENTS, main

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


class TestAsciiCharts:
    def test_bar_chart_rows(self):
        out = bar_chart(["a", "bb"], [1.0, 2.0])
        lines = out.splitlines()
        assert len(lines) == 2
        assert "##" in lines[1]
        assert lines[1].count("#") > lines[0].count("#")

    def test_bar_chart_empty(self):
        assert bar_chart([], []) == "(no data)"

    def test_bar_chart_misaligned(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_line_chart_contains_marks_and_legend(self):
        out = line_chart([0, 1, 2], {"up": [0, 1, 2], "down": [2, 1, 0]})
        assert "o up" in out and "x down" in out
        assert "o" in out and "x" in out

    def test_line_chart_misaligned(self):
        with pytest.raises(ValueError):
            line_chart([0, 1], {"s": [1, 2, 3]})

    def test_line_chart_title(self):
        out = line_chart([0, 1], {"s": [0, 1]}, title="hello")
        assert out.splitlines()[0] == "hello"


class TestCli:
    def test_registry_complete(self):
        # Every paper figure/table plus the extensions is runnable.
        expected = {
            "fig2a", "fig2b", "fig3ab", "fig3cd", "fig3ef", "fig4a",
            "fig4b", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig12a",
            "fig12b", "fig12c", "fig12de", "fig13", "fig14", "fig15",
            "fig16", "fig17a", "fig17b", "fig18", "fig21", "table4",
            "ablation", "strategy3", "strategy4", "disruption", "erlang",
            "chaos",
        }
        assert expected == set(EXPERIMENTS)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12a" in out and "table4" in out

    def test_run_prints_json(self, capsys):
        assert main(["run", "fig18"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_regions"] == 200

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["run", "fig18", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert "fraction_below_6_5mhz" in payload

    def test_run_with_seed(self, capsys):
        assert main(["run", "fig7", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bearing_deg"][0] == 0

    def test_render_known_chart(self, capsys):
        assert main(["render", "fig5a"]) == 0
        out = capsys.readouterr().out
        assert "ch/GW" in out and "#" in out

    def test_render_generic_fallback(self, capsys):
        assert main(["render", "fig16"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_run_writes_tuple_keys_as_strings(self, tmp_path, monkeypatch, capsys):
        # Fig 13's heat map is keyed by (channel, DR); a stand-in for
        # run_fig13 keeps the test from running the figure.
        def fake_fig13(seed=0, fast=True):
            return {"utilization": {"alphawan": {(3, 5): 7, (0, 0): 1}}}

        monkeypatch.setitem(EXPERIMENTS, "fig13", (fake_fig13, "stand-in"))
        path = tmp_path / "fig13.json"
        assert main(["run", "fig13", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["utilization"] == {"alphawan": {"3:5": 7, "0:0": 1}}

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # More output than a pipe buffer holds, so the CLI is still
        # writing when the reader goes away (``... | head -1``).
        trace = tmp_path / "big.jsonl"
        line = json.dumps({"type": "gw.lock_on", "t": 0.0, "pad": "x" * 80})
        trace.write_text((line + "\n") * 5_000)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "trace", "query",
             str(trace), "type=gw.lock_on"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])


class TestCliObservability:
    def test_run_attaches_manifest(self, capsys):
        assert main(["run", "fig18"]) == 0
        payload = json.loads(capsys.readouterr().out)
        manifest = payload["manifest"]
        assert manifest["experiment"] == "fig18"
        assert manifest["seed"] == 0
        assert manifest["fast"] is True
        assert manifest["wall_time_s"] is not None

    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(
            ["run", "fig2a", "--trace", str(trace), "--metrics", str(prom)]
        ) == 0
        # stdout stays parseable JSON; write notices go to stderr.
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "wrote" in captured.err
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "manifest"
        assert json.loads(lines[0])["wall_time_s"] is not None
        assert prom.read_text()  # snapshot written (may be sparse)

    def test_trace_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "fig2a", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sim_runs"] >= 1
        assert summary["events"] > 0
        assert sum(summary["outcome_counts"].values()) > 0

    def test_trace_query(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "fig2a", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(
            ["trace", "query", str(trace), "type=decoder.grant",
             "--limit", "5"]
        ) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(out_lines) <= 5
        for line in out_lines:
            assert json.loads(line)["type"] == "decoder.grant"

    def test_trace_render(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "fig2a", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "render", str(trace), "--bucket-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "decoder-pool occupancy" in out

    def test_trace_refuses_directory_and_concatenated_traces(
        self, tmp_path, capsys
    ):
        manifest = json.dumps({"seq": 0, "type": "manifest", "schema": 2})
        event = json.dumps({"seq": 1, "type": "sim.run_start", "t": 0.0})
        concatenated = tmp_path / "two-runs.jsonl"
        concatenated.write_text("\n".join([manifest, event] * 2) + "\n")
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join([manifest, event, event[:12]]) + "\n")
        listed = tmp_path / "listed.jsonl"
        listed.write_text("\n".join([manifest, "[1, 2]"]) + "\n")
        for path, says in (
            (tmp_path, "is a directory"),
            (concatenated, "carries 2 manifests"),
            (tmp_path / "absent.jsonl", "cannot be read"),
            (torn, "line 3 is not JSON"),
            (listed, "line 2 is not a JSON object"),
        ):
            for command in ("summarize", "health"):
                assert main(["trace", command, str(path)]) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1
                assert repr(str(path)) in err
                assert says in err
                assert "pass the JSONL file of one run" in err
                assert "merge" not in err

    def test_verbosity_flags_accepted(self, capsys):
        assert main(["-v", "list"]) == 0
        assert main(["-q", "list"]) == 0
        assert main(["-vv", "list"]) == 0


class TestCliHealthObservatory:
    def _trace(self, tmp_path, name="a.jsonl", events=None):
        path = tmp_path / name
        events = events if events is not None else [
            {"seq": 0, "type": "manifest", "schema": 1},
            {"seq": 1, "type": "sim.run_start", "t": 0.0},
            {"seq": 2, "type": "gw.lock_on", "t": 1.0, "gw": 0,
             "net": 1, "node": 7},
            {"seq": 3, "type": "gw.reception", "t": 1.0, "gw": 0,
             "net": 1, "node": 7, "outcome": "received"},
            {"seq": 4, "type": "sim.run_end", "t": 10.0},
        ]
        with open(path, "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev) + "\n")
        return path

    def test_run_writes_health_report(self, tmp_path, capsys):
        health = tmp_path / "health.json"
        assert main(["run", "chaos", "--health", str(health)]) == 0
        capsys.readouterr()
        report = json.loads(health.read_text())
        assert report["schema"] == 1
        assert report["healthz"]["status"] in ("ok", "degraded", "critical")
        rules = {a["rule"] for a in report["alerts"]}
        assert "gateway_offline" in rules

    def test_trace_diff_structured_output(self, tmp_path, capsys):
        a = self._trace(tmp_path, "a.jsonl")
        b = self._trace(tmp_path, "b.jsonl")
        assert main(["trace", "diff", str(a), str(b)]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["outcome_counts"]["received"]["delta"] == 0.0
        assert diff["packets"] == {"a": 1.0, "b": 1.0}

    def test_regress_passes_on_identical_runs(self, tmp_path, capsys):
        a = self._trace(tmp_path, "a.jsonl")
        b = self._trace(tmp_path, "b.jsonl")
        assert main(["regress", str(a), str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"

    def test_regress_fails_on_injected_regression(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"prr": 0.95}))
        b.write_text(json.dumps({"prr": 0.50}))
        out = tmp_path / "report.json"
        assert main(
            ["regress", str(a), str(b), "--json", str(out)]
        ) == 1
        captured = capsys.readouterr()
        assert "regression: prr" in captured.err
        assert json.loads(out.read_text())["status"] == "fail"

    def test_regress_per_metric_tolerance_rescues(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"prr": 0.95}))
        b.write_text(json.dumps({"prr": 0.50}))
        assert main(
            ["regress", str(a), str(b), "--tol", "prr=0.8"]
        ) == 0
        capsys.readouterr()

    def test_regress_rejects_bad_tol_spec(self, tmp_path, capsys):
        a = self._trace(tmp_path, "a.jsonl")
        assert main(["regress", str(a), str(a), "--tol", "oops"]) == 2
        capsys.readouterr()

    def test_trace_health_renders_dashboard(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["trace", "health", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "gw0" in out

    def test_regress_kind_mismatch_fails_cleanly(self, tmp_path, capsys):
        trace = self._trace(tmp_path, "a.jsonl")
        result = tmp_path / "b.json"
        result.write_text(json.dumps({"prr": 0.5}))
        assert main(["regress", str(trace), str(result)]) == 2
        assert "regress:" in capsys.readouterr().err


class TestDrillCommand:
    def test_drill_passes_and_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "drill"
        trace = tmp_path / "drill.jsonl"
        bench = tmp_path / "BENCH_master_recovery.json"
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "drill",
                    "--seed", "7",
                    "--operators", "4",
                    "--crash-at", "3",
                    "--snapshot-after", "1",
                    "--max-recovery-s", "30.0",
                    "--out-dir", str(out_dir),
                    "--trace", str(trace),
                    "--bench", str(bench),
                    "--json", str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["duplicate_grants"] == 0
        # The journal and snapshot artifacts exist for post-mortems.
        assert (out_dir / "master-journal.jsonl").exists()
        assert (out_dir / "master-snapshot.json").exists()
        # The trace holds the crash and the recovery.
        events = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line
        ]
        etypes = {e.get("type") for e in events}
        assert "master.crash" in etypes
        assert "master.recovered" in etypes
        # The bench record follows the BENCH trajectory format.
        history = json.loads(bench.read_text())
        assert history[-1]["events"]["passed"] == 1
        assert history[-1]["events"]["recovery_wall_s"] > 0
        assert history[-1]["event_counts"]["master.crash"] == 1

    def test_drill_bench_appends(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        for _ in range(2):
            assert (
                main(
                    [
                        "drill",
                        "--operators", "3",
                        "--crash-at", "2",
                        "--snapshot-after", "1",
                        "--out-dir", str(tmp_path / "scratch"),
                        "--bench", str(bench),
                        "--json", str(tmp_path / "r.json"),
                    ]
                )
                == 0
            )
        assert len(json.loads(bench.read_text())) == 2

    def test_drill_failure_exits_nonzero(self, tmp_path, capsys):
        assert (
            main(
                [
                    "drill",
                    "--operators", "3",
                    "--crash-at", "2",
                    "--snapshot-after", "1",
                    "--max-recovery-s", "0.0",
                    "--out-dir", str(tmp_path / "scratch"),
                    "--json", str(tmp_path / "r.json"),
                ]
            )
            == 1
        )
        assert "drill failure" in capsys.readouterr().err
