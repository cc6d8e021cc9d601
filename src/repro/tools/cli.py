"""Command-line interface: list, run, render, and trace paper experiments.

Usage::

    python -m repro.tools list
    python -m repro.tools run fig12a --seed 3 --json out.json
    python -m repro.tools -v run chaos --trace chaos.jsonl --metrics chaos.prom
    python -m repro.tools render fig2a
    python -m repro.tools run chaos --trace chaos.jsonl --health health.json
    python -m repro.tools trace summarize chaos.jsonl
    python -m repro.tools trace render chaos.jsonl --bucket-s 2
    python -m repro.tools trace diff a.jsonl b.jsonl
    python -m repro.tools trace query chaos.jsonl "type=gw.reception outcome=gateway_offline"
    python -m repro.tools trace explain chaos.jsonl 1:9:1:0
    python -m repro.tools trace health chaos.jsonl
    python -m repro.tools regress a.jsonl b.jsonl --rel-tol 0.1
    python -m repro.tools profile fig4a
    python -m repro.tools profile chaos --seed 3 --json perf.json
    python -m repro.tools drill --seed 7 --max-recovery-s 2.0
    python -m repro.tools lint src tests --format json
    python -m repro.tools lint src tests --deep
    python -m repro.tools lint src tests --deep --changed
    python -m repro.tools lint src tests --deep --format sarif > lint.sarif

``run`` executes an experiment driver and prints (or saves) its series
as JSON — with ``--trace`` / ``--metrics`` the run executes inside an
observability session and exports the JSONL trace / Prometheus
snapshot.  ``render`` draws the headline series as an ASCII chart.
``trace`` inspects a previously written JSONL trace (``diff`` compares
two); ``trace query`` filters with a small ``field OP value``
expression language, ``trace explain`` walks one packet's causal
chain and highlights the event that decided its outcome, and ``trace
health`` renders the health dashboard of the trace's replay.  ``regress``
compares two run artifacts against tolerances and exits non-zero on
drift.  ``profile`` runs one experiment driver (fast settings, as
``render`` does) under the performance observatory
(:mod:`repro.obs.perf`) and renders throughput, the phase table and
cProfile hotspots — ``--json`` for the raw report.
``drill`` runs the Master failover drill
(:func:`repro.faults.drill.run_drill`): crash the Master mid-campaign,
recover from snapshot + journal, exit non-zero if any crash-safety
invariant fails.  ``lint`` runs the
determinism & invariant linter (:mod:`repro.lint`) over the tree;
``--deep`` adds the whole-program passes (call-graph purity, lock
discipline, hot-loop hygiene), ``--changed [REF]`` restricts reporting
to files touched vs a git ref, and ``--format github``/``sarif`` emit
CI annotations / a code-scanning log.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from .. import experiments
from ..lint.cli import add_lint_arguments, run_lint
from ..obs import observe, setup_logging
from ..obs.health import HealthMonitor
from ..obs.manifest import Stopwatch, build_manifest
from ..obs.recorder import load_trace
from ..obs.regress import Tolerance, compare_runs, trace_diff
from ..obs.timeline import render_occupancy, summarize_trace
from .ascii_chart import bar_chart, line_chart, render_dashboard

__all__ = ["main", "EXPERIMENTS"]

# name -> (driver, one-line description)
EXPERIMENTS: Dict[str, tuple] = {
    "fig2a": (experiments.run_fig2a, "capacity gap: received vs concurrency"),
    "fig2b": (experiments.run_fig2b, "two coexisting networks share the 16-cap"),
    "fig3ab": (experiments.run_fig3ab, "FCFS lock-on order (schemes a/b)"),
    "fig3cd": (experiments.run_fig3cd, "SNR / crowdedness do not matter"),
    "fig3ef": (experiments.run_fig3ef, "foreign packets consume decoders"),
    "fig4a": (experiments.run_fig4a, "loss causes vs user scale"),
    "fig4b": (experiments.run_fig4b, "loss causes vs coexisting networks"),
    "fig5a": (experiments.run_fig5a, "fewer channels per gateway"),
    "fig5b": (experiments.run_fig5b, "heterogeneous channel configs"),
    "fig6": (experiments.run_fig6, "ADR cell shrinkage and DR skew"),
    "fig7": (experiments.run_fig7, "directional antennas"),
    "fig8": (experiments.run_fig8, "PRR vs channel overlap"),
    "fig12a": (experiments.run_fig12a, "capacity vs gateway count"),
    "fig12b": (experiments.run_fig12b, "capacity vs spectrum"),
    "fig12c": (experiments.run_fig12c, "contention-management CDF"),
    "fig12de": (experiments.run_fig12de, "spectrum sharing, 1-6 networks"),
    "fig13": (experiments.run_fig13, "scaled ops vs state of the art"),
    "fig14": (experiments.run_fig14, "partial adoption"),
    "fig15": (experiments.run_fig15, "fairness under load"),
    "fig16": (experiments.run_fig16, "reception thresholds"),
    "fig17a": (experiments.run_fig17a, "upgrade latency vs scale"),
    "fig17b": (experiments.run_fig17b, "upgrade latency, coexisting nets"),
    "fig18": (experiments.run_fig18, "regulatory spectrum CDF"),
    "fig21": (experiments.run_fig21, "53-week expansion"),
    "table4": (experiments.run_table4, "COTS gateway capacities"),
    "ablation": (experiments.run_ablation, "planner component ablation"),
    "chaos": (experiments.run_chaos, "fault injection + resilience (ext.)"),
    "disruption": (experiments.run_disruption, "live-upgrade disruption (ext.)"),
    "erlang": (experiments.run_erlang_validation, "decoder loss vs Erlang-B (ext.)"),
    "strategy3": (experiments.run_strategy3, "hardware upgrade (ext.)"),
    "strategy4": (experiments.run_strategy4, "more spectrum (ext.)"),
}


def _call_driver(name: str, seed: int, fast: Optional[bool]):
    driver, _ = EXPERIMENTS[name]
    kwargs = {}
    params = inspect.signature(driver).parameters
    if "seed" in params:
        kwargs["seed"] = seed
    if fast is not None and "fast" in params:
        kwargs["fast"] = fast
    return driver(**kwargs)


def _json_safe(value):
    """``value`` with tuple dict keys, at any depth, joined as ``"a:b"``.

    Heat maps such as Fig 13's ``utilization`` are keyed by
    ``(channel, DR)`` tuples, which JSON objects cannot hold.
    """
    if isinstance(value, dict):
        return {
            (":".join(map(str, k)) if isinstance(k, tuple) else k): _json_safe(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _render(name: str, result) -> str:
    """Best-effort ASCII rendering of an experiment's headline series."""
    if name == "fig2a":
        return line_chart(
            result["n"],
            {k: result[k] for k in ("oracle", "gw1", "gw3")},
            title="received packets vs offered concurrency",
        )
    if name == "fig12a":
        keys = ("oracle", "standard", "random_cp", "alphawan_full")
        return line_chart(
            result["gateways"],
            {k: result[k] for k in keys},
            title="concurrent-user capacity vs gateways",
        )
    if name == "fig13":
        return line_chart(
            result["users"],
            {k: v for k, v in result["prr"].items()},
            title="PRR vs emulated users",
        )
    if name == "fig21":
        weeks = result["week"]
        return line_chart(
            weeks,
            result["prr"],
            title="weekly PRR over the expansion year",
        )
    if name == "table4":
        return bar_chart(
            [row["model"] for row in result],
            [row["measured_capacity"] for row in result],
            unit=" users",
        )
    if name == "fig5a":
        return bar_chart(
            [f"{c} ch/GW" for c in result["channels_per_gw"]],
            result["capacity"],
            unit=" users",
        )
    if name == "ablation":
        return bar_chart(list(result), list(result.values()), unit=" users")
    if name == "chaos":
        series = result["bucketed_prr"]
        xs = [i * result["bucket_s"] for i in range(len(series))]
        return line_chart(
            xs,
            {"prr": series},
            title="PRR through the chaos window (crash at t=30 s)",
        )
    # Generic fallbacks.
    if isinstance(result, dict):
        scalars = {
            k: v for k, v in result.items() if isinstance(v, (int, float))
        }
        if scalars:
            return bar_chart(list(scalars), list(scalars.values()))
    return "(no renderer for this experiment; use `run` for raw JSON)"


def _run_observed(args, fast: bool):
    """Execute one driver, optionally inside an observability session.

    Returns ``(result, manifest)`` — the manifest always describes the
    run; when ``--trace`` / ``--metrics`` were requested the artifacts
    are written before returning (write notices go to stderr so stdout
    stays parseable JSON).
    """
    watch = Stopwatch()
    manifest = build_manifest(
        experiment=args.name,
        seed=args.seed,
        config={"seed": args.seed, "fast": fast},
        extra={"fast": fast},
    )
    if not (args.trace_path or args.metrics_path or args.health_path):
        result = _call_driver(args.name, args.seed, fast)
        manifest["wall_time_s"] = watch.elapsed_s()
        return result, manifest
    with observe(
        trace=bool(args.trace_path),
        metrics=bool(args.metrics_path),
        health=bool(args.health_path),
        manifest=manifest,
    ) as session:
        result = _call_driver(args.name, args.seed, fast)
    manifest["wall_time_s"] = watch.elapsed_s()
    if session.recorder is not None and args.trace_path:
        session.recorder.manifest["wall_time_s"] = manifest["wall_time_s"]
        session.recorder.write_jsonl(args.trace_path)
        print(
            f"wrote {args.trace_path} ({len(session.recorder)} events)",
            file=sys.stderr,
        )
    if session.metrics is not None:
        session.metrics.write_prometheus(args.metrics_path)
        print(f"wrote {args.metrics_path}", file=sys.stderr)
    if session.health is not None:
        session.health.evaluate()
        with open(args.health_path, "w") as fh:
            json.dump(session.health.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.health_path}", file=sys.stderr)
    return result, manifest


def _load_one_trace(path: str) -> List[Dict[str, Any]]:
    """The events of the single trace at ``path``.

    Raises:
        ValueError: naming ``path`` when no ``trace`` reader can
            interpret it: a directory, a file that cannot be read or
            holds a line that is not a JSON object, or a file with
            several manifest lines (concatenated traces).
    """
    if os.path.isdir(path):
        raise ValueError(f"{path!r} is a directory")
    try:
        events = load_trace(path)
    except OSError as exc:
        raise ValueError(f"{path!r} cannot be read ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path!r} is not UTF-8 text") from None
    manifests = sum(1 for ev in events if ev.get("type") == "manifest")
    if manifests > 1:
        raise ValueError(
            f"{path!r} carries {manifests} manifests (concatenated "
            "traces?), whose sequence numbers and sim times restart per run"
        )
    return events


def _trace_command(args) -> int:
    try:
        events = _load_one_trace(args.path)
        events_b = (
            _load_one_trace(args.path_b) if args.trace_command == "diff" else []
        )
    except ValueError as exc:
        print(
            f"trace {args.trace_command}: {exc} — pass the JSONL file of "
            "one run",
            file=sys.stderr,
        )
        return 2
    if args.trace_command == "query":
        from ..obs.query import QueryError, query_events

        try:
            selected = query_events(events, args.expr)
        except QueryError as exc:
            print(f"trace query: {exc}", file=sys.stderr)
            return 2
        shown = selected if args.limit is None else selected[: args.limit]
        for ev in shown:
            print(json.dumps(ev, separators=(",", ":")))
        if len(shown) < len(selected):
            print(
                f"... {len(selected) - len(shown)} more "
                f"(of {len(selected)} matching)",
                file=sys.stderr,
            )
        return 0
    if args.trace_command == "explain":
        from ..obs.query import ExplainError, explain_packet, render_explain

        try:
            report = explain_packet(events, args.packet)
        except ExplainError as exc:
            print(f"trace explain: {exc}", file=sys.stderr)
            return 2
        if args.json_path:
            with open(args.json_path, "w") as fh:
                fh.write(json.dumps(report, indent=2, default=str) + "\n")
            print(f"wrote {args.json_path}", file=sys.stderr)
        print(render_explain(report))
        return 0
    if args.trace_command == "summarize":
        print(json.dumps(summarize_trace(events), indent=2, default=str))
        return 0
    if args.trace_command == "render":
        print(render_occupancy(events, bucket_s=args.bucket_s))
        return 0
    if args.trace_command == "diff":
        print(json.dumps(trace_diff(events, events_b), indent=2))
        return 0
    if args.trace_command == "health":
        monitor = HealthMonitor().replay(events)
        print(
            render_dashboard(monitor.healthz(), monitor.alerts(), source=args.path)
        )
        return 0
    return 2


def _regress_command(args) -> int:
    tolerances = {}
    for spec in args.tol:
        metric, _, value = spec.partition("=")
        if not metric or not value:
            print(f"regress: bad --tol {spec!r} (want METRIC=REL)", file=sys.stderr)
            return 2
        tolerances[metric] = Tolerance(
            rel_tol=float(value), abs_tol=args.abs_tol
        )
    try:
        report = compare_runs(
            args.path_a,
            args.path_b,
            tolerances=tolerances,
            default=Tolerance(rel_tol=args.rel_tol, abs_tol=args.abs_tol),
        )
    except (OSError, ValueError) as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(report, indent=2)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.json_path}", file=sys.stderr)
    else:
        print(payload)
    if report["status"] != "pass":
        for check in report["regressions"]:
            print(
                f"regression: {check['metric']} "
                f"{check['a']} -> {check['b']}",
                file=sys.stderr,
            )
        return 1
    return 0


def _profile_command(args) -> int:
    from ..obs.perf import (
        render_hotspots,
        render_phase_table,
        render_throughput,
        run_profiled,
    )

    def run():
        return _call_driver(args.name, args.seed, True)

    if not args.no_warmup:
        # Warm-up run outside the probe: without it, first-import and
        # cache-fill costs dominate the wall time and the phase table
        # attributes little of it.
        run()
    _, report = run_profiled(
        run,
        sample_every=args.sample_every,
        cprofile=not args.no_cprofile,
        memory=args.memory,
        top_n=args.top,
    )
    payload = {"experiment": args.name, "seed": args.seed, "report": report}
    if args.json_path:
        text = json.dumps(payload, indent=2, default=str)
        if args.json_path == "-":
            print(text)
        else:
            with open(args.json_path, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json_path}", file=sys.stderr)
        return 0
    header = f"profile: {args.name} (seed {args.seed})"
    print(header)
    print("=" * len(header))
    print(render_throughput(report))
    print()
    print(render_phase_table(report))
    if not args.no_cprofile:
        print()
        print(render_hotspots(report))
    return 0


def _drill_bench_record(manifest, report, session) -> Dict:
    """One BENCH-trajectory record for a failover drill run.

    Matches the ``benchmarks/`` format ({date, duration_s, events,
    event_counts}); everything under ``events`` except the wall-clock
    recovery time is seed-deterministic, so ``regress`` can gate on it.
    """
    counts: Dict[str, int] = {}
    if session.recorder is not None:
        for ev in session.recorder.events:
            counts[ev.etype] = counts.get(ev.etype, 0) + 1
    return {
        "date": manifest["started_at"],
        "duration_s": manifest["wall_time_s"],
        "events": {
            "operators": report.operators,
            "crash_at_request": report.crash_at_request,
            "journal_ops": report.journal_ops,
            "duplicate_grants": report.duplicate_grants,
            "lost_assignments": report.lost_assignments,
            "resumes_ok": report.resumes_ok,
            "epoch_after": report.epoch_after,
            "client_retries": report.client_retries,
            "recovery_wall_s": report.recovery_wall_s,
            "passed": int(report.passed),
        },
        "event_counts": counts,
    }


def _drill_command(args) -> int:
    from ..faults.drill import run_drill
    from ..phy.regions import TESTBED_16

    watch = Stopwatch()
    manifest = build_manifest(
        experiment="drill",
        seed=args.seed,
        config={
            "seed": args.seed,
            "operators": args.operators,
            "crash_at": args.crash_at,
            "snapshot_after": args.snapshot_after,
        },
    )
    with observe(
        trace=True,
        metrics=bool(args.metrics_path),
        health=False,
        manifest=manifest,
    ) as session:
        report = run_drill(
            TESTBED_16.grid(),
            out_dir=args.out_dir,
            seed=args.seed,
            operators=args.operators,
            crash_at_request=args.crash_at,
            snapshot_after=args.snapshot_after,
            max_recovery_s=args.max_recovery_s,
        )
    manifest["wall_time_s"] = watch.elapsed_s()
    if args.trace_path and session.recorder is not None:
        session.recorder.manifest["wall_time_s"] = manifest["wall_time_s"]
        session.recorder.write_jsonl(args.trace_path)
        print(
            f"wrote {args.trace_path} ({len(session.recorder)} events)",
            file=sys.stderr,
        )
    if args.metrics_path and session.metrics is not None:
        session.metrics.write_prometheus(args.metrics_path)
        print(f"wrote {args.metrics_path}", file=sys.stderr)
    if args.bench_path:
        history = []
        if os.path.exists(args.bench_path):
            with open(args.bench_path) as fh:
                history = json.load(fh)
        history.append(_drill_bench_record(manifest, report, session))
        with open(args.bench_path, "w") as fh:
            json.dump(history, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.bench_path}", file=sys.stderr)
    result = report.to_dict()
    result["manifest"] = manifest
    payload = json.dumps(result, indent=2, default=str)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.json_path}", file=sys.stderr)
    else:
        print(payload)
    if not report.passed:
        for failure in report.failures:
            print(f"drill failure: {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="Run and render the AlphaWAN paper reproductions.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run an experiment, print JSON")
    run_p.add_argument("name", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--json", dest="json_path", default=None)
    run_p.add_argument(
        "--full",
        action="store_true",
        help="use the full (slow) solver settings where applicable",
    )
    run_p.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        help="record a structured event trace to this JSONL file",
    )
    run_p.add_argument(
        "--metrics",
        dest="metrics_path",
        default=None,
        help="write a Prometheus-text metrics snapshot to this file",
    )
    run_p.add_argument(
        "--health",
        dest="health_path",
        default=None,
        help="run with the health observatory and write its report here",
    )

    render_p = sub.add_parser("render", help="run and draw an ASCII chart")
    render_p.add_argument("name", choices=sorted(EXPERIMENTS))
    render_p.add_argument("--seed", type=int, default=0)

    trace_p = sub.add_parser("trace", help="inspect a JSONL trace file")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    sum_p = trace_sub.add_parser(
        "summarize", help="aggregate view: events, packets, outcomes"
    )
    sum_p.add_argument("path")
    rend_p = trace_sub.add_parser(
        "render", help="ASCII decoder-occupancy timeline"
    )
    rend_p.add_argument("path")
    rend_p.add_argument("--bucket-s", dest="bucket_s", type=float, default=1.0)
    diff_p = trace_sub.add_parser(
        "diff", help="structured diff of two trace files"
    )
    diff_p.add_argument("path")
    diff_p.add_argument("path_b")
    query_p = trace_sub.add_parser(
        "query",
        help="filter events with 'field OP value' clauses "
        "(e.g. 'type=gw.reception outcome=gateway_offline')",
    )
    query_p.add_argument("path")
    query_p.add_argument("expr", help="whitespace-separated filter clauses")
    query_p.add_argument("--limit", type=int, default=None)
    explain_p = trace_sub.add_parser(
        "explain",
        help="walk one packet's causal chain (NET:NODE:CTR[:ATT]) and "
        "highlight the outcome-deciding event",
    )
    explain_p.add_argument("path")
    explain_p.add_argument("packet", help="packet id NET:NODE:CTR[:ATT]")
    explain_p.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also write the machine-readable chain to this file",
    )
    health_p = trace_sub.add_parser(
        "health", help="ASCII health dashboard of the trace's replay"
    )
    health_p.add_argument("path")

    regress_p = sub.add_parser(
        "regress",
        help="compare two run artifacts (trace/result/bench) for drift",
    )
    regress_p.add_argument("path_a")
    regress_p.add_argument("path_b")
    regress_p.add_argument(
        "--rel-tol",
        type=float,
        default=0.05,
        help="default relative tolerance (fraction, default 0.05)",
    )
    regress_p.add_argument(
        "--abs-tol",
        type=float,
        default=1e-9,
        help="default absolute tolerance",
    )
    regress_p.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="METRIC=REL",
        help="per-metric relative tolerance override (repeatable)",
    )
    regress_p.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the machine-readable report to this file",
    )

    drill_p = sub.add_parser(
        "drill",
        help="failover drill: crash + recover the Master, assert safety",
    )
    drill_p.add_argument("--seed", type=int, default=0)
    drill_p.add_argument(
        "--operators", type=int, default=6, help="fleet size (default 6)"
    )
    drill_p.add_argument(
        "--crash-at",
        dest="crash_at",
        type=int,
        default=4,
        help="request number the Master dies on (applied, unreplied)",
    )
    drill_p.add_argument(
        "--snapshot-after",
        dest="snapshot_after",
        type=int,
        default=2,
        help="snapshot after this many registers (0 = journal-only)",
    )
    drill_p.add_argument(
        "--max-recovery-s",
        dest="max_recovery_s",
        type=float,
        default=None,
        help="fail the drill if recovery exceeds this wall-clock budget",
    )
    drill_p.add_argument(
        "--out-dir",
        dest="out_dir",
        default="drill-artifacts",
        help="scratch directory for the journal and snapshot",
    )
    drill_p.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        help="write the drill's JSONL event trace here",
    )
    drill_p.add_argument(
        "--metrics",
        dest="metrics_path",
        default=None,
        help="write a Prometheus-text metrics snapshot here",
    )
    drill_p.add_argument(
        "--bench",
        dest="bench_path",
        default=None,
        help="append a BENCH-trajectory record to this JSON file",
    )
    drill_p.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the drill report to this file instead of stdout",
    )

    profile_p = sub.add_parser(
        "profile",
        help="run an experiment under the performance observatory",
    )
    profile_p.add_argument("name", choices=sorted(EXPERIMENTS))
    profile_p.add_argument("--seed", type=int, default=0)
    profile_p.add_argument(
        "--sample-every",
        dest="sample_every",
        type=int,
        default=1,
        help="time 1-in-N phase calls (default 1 = every call)",
    )
    profile_p.add_argument(
        "--top",
        type=int,
        default=15,
        help="hotspot rows to keep (default 15)",
    )
    profile_p.add_argument(
        "--no-cprofile",
        action="store_true",
        help="skip the cProfile hotspot pass (lower overhead)",
    )
    profile_p.add_argument(
        "--no-warmup",
        action="store_true",
        help="profile the cold first run (imports and caches included)",
    )
    profile_p.add_argument(
        "--memory",
        action="store_true",
        help="track the tracemalloc memory high-water mark",
    )
    profile_p.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the raw report as JSON ('-' for stdout)",
    )

    lint_p = sub.add_parser(
        "lint", help="run the determinism & invariant linter"
    )
    add_lint_arguments(lint_p)

    args = parser.parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)

    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name:<{width}}  {EXPERIMENTS[name][1]}")
        return 0

    if args.command == "run":
        fast = not args.full
        result, manifest = _run_observed(args, fast)
        if isinstance(result, dict):
            result = dict(result)
            result["manifest"] = manifest
        payload = json.dumps(_json_safe(result), indent=2, default=str)
        if args.json_path:
            with open(args.json_path, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json_path}")
        else:
            print(payload)
        return 0

    if args.command == "render":
        result = _call_driver(args.name, args.seed, True)
        print(_render(args.name, result))
        return 0

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "regress":
        return _regress_command(args)

    if args.command == "profile":
        return _profile_command(args)

    if args.command == "drill":
        return _drill_command(args)

    if args.command == "lint":
        return run_lint(args)

    return 2


if __name__ == "__main__":
    sys.exit(main())
