"""AlphaWAN reproduction benchmark: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1] [--out DIR]

Without ``--workload`` every workload runs, each in its own fresh
subprocess, one after another.  A run sets its workload up several
times (``setup_s`` is the median), then repeats the timed operation for
``--seconds`` seconds with every ``repro.obs.runtime`` slot ``None``.
With ``--trace 1`` (the default) it then runs one more operation with
the layer boundaries of ``tracing.TARGETS`` wrapped and a PerfProbe
attached; that run gives the per-layer metrics and is excluded from the
end-to-end ones.  Every output is checked: repetitions must agree
exactly, invariants must hold, and seeds listed in ``golden.json`` must
reproduce their recorded results.

It prints every metric with its unit, median, quartiles and sample
count, writes ``results.json`` and ``<workload>.trace.json`` under
``--out``, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  It exits non-zero on any failed check, and when
the program's sources are not next to it.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup_s counts the program's import

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# name -> (unit, better); bounds live in BENCHMARK.json.
E2E: Dict[str, tuple] = {
    "op_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUPS = 3
DEFAULT_SECONDS = 25


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"bench: imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(2)


def _summary(values: List[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def _guard() -> None:
    """Raise unless every observability slot holds its default ``None``."""
    from repro.obs import runtime

    live = [
        name
        for name in runtime.__all__
        if name.isupper() and getattr(runtime, name, None) is not None
    ]
    if live:
        raise RuntimeError(f"observability active during a timed operation: {live}")


def _json(value: object) -> object:
    return json.loads(json.dumps(value))


def _traced(wl, state: dict, op_median_s: float, workload: str, seed: int):
    """One traced operation: (output, master summary, metrics, trace doc)."""
    absent: List[str] = []
    try:
        from repro.obs.perf import PerfProbe

        probe: Optional[object] = PerfProbe(sample_every=1)
    except ImportError:
        probe = None
        absent.append("repro.obs.perf:PerfProbe")
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    absent.extend(missing)
    try:
        with probe.attach() if probe is not None else nullcontext():
            t0 = time.perf_counter()
            output, master, op_wall = wl.traced(state)
            region_s = time.perf_counter() - t0
    finally:
        restore()
    phases: Dict[str, dict] = {}
    if probe is not None:
        report = probe.report()
        for phase in tracing.PHASES:
            phases[phase] = {
                "items": report["deterministic"]["phases"].get(phase, {}).get("items", 0),
                "share": report["wall"]["phases"].get(phase, {}).get("share", 0.0),
            }
    layers = tracing.layer_stats(tracer.spans)
    metrics = tracing.per_layer_metrics(
        layers,
        tracer.counts,
        tracer.spans,
        phases,
        region_s,
        op_wall / op_median_s - 1.0,
        len(absent),
    )
    doc = {
        "workload": workload,
        "seed": seed,
        "region_s": region_s,
        "absent": absent,
        "layers": layers,
        "counts": dict(tracer.counts),
        "phases": phases,
        "metrics": metrics,
        "span_fields": ["name", "start_s", "end_s", "parent", "thread"],
        "spans": [
            [name, start - t0, end - t0, parent, thread]
            for name, start, end, parent, thread in tracer.spans
        ],
    }
    return output, master, metrics, doc


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload in this process; returns (result, trace doc)."""
    from workloads import WORKLOADS  # imports the program

    wl = WORKLOADS[name]
    import_s = time.perf_counter() - _STARTED
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    problems: List[str] = []
    attempted = failed = 0

    setup_s, fingerprints = [], []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            wl.teardown(state)
        refs: List[float] = []
        hostspeed.sample(refs, 2)
        t0 = time.perf_counter()
        state = wl.setup(seed)
        wall = time.perf_counter() - t0
        hostspeed.sample(refs, 2)
        setup_s.append((import_s + wall) * hostspeed.scale(refs))
        fingerprints.append(state["fingerprint"])
    attempted += SETUPS
    if len(set(fingerprints)) != 1:
        failed += SETUPS - fingerprints.count(fingerprints[0])
        problems.append("repeated set-ups built different inputs")

    doc = None
    per_layer: Dict[str, float] = {}
    try:
        measured = wl.measure(state, seconds, _guard)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = measured.ops.outputs
        first = outputs[0]
        attempted += len(outputs)
        mismatched = sum(out != first for out in outputs[1:])
        if mismatched:
            failed += mismatched
            problems.append(f"{mismatched} repetitions disagree with the first")
        invariant = wl.check(first)
        if invariant:
            failed += 1
            problems.extend(invariant)
        view = {"op": first}
        master = measured.master
        if master is not None:
            view["master_channel_indices"] = master["channel_indices"]
            attempted += master["round_trips"]
            failed += master["mismatches"]
            if master["mismatches"]:
                problems.append(f"{master['mismatches']} Master replies were wrong")
        view = _json(view)
        expected = golden.get(name, {}).get(str(seed))
        if expected is not None and expected != view:
            failed += 1
            problems.append(f"seed {seed} differs from golden.json")

        if trace:
            op_median = statistics.median(measured.ops.walls)
            output, traced_master, per_layer, doc = _traced(wl, state, op_median, name, seed)
            attempted += 1
            if output != first:
                failed += 1
                problems.append("traced operation disagrees with the timed ones")
            if traced_master is not None:
                attempted += traced_master["round_trips"]
                failed += traced_master["mismatches"]
                if traced_master["channel_indices"] != master["channel_indices"]:
                    failed += 1
                    problems.append("traced Master assignment differs")
    finally:
        wl.teardown(state)

    metrics = {
        "op_s": _summary(measured.ops.seconds()),
        "items_per_s": _summary(measured.throughput.rates()),
        "setup_s": _summary(setup_s),
        "peak_rss_mb": _summary([peak_rss_mb]),
    }
    for key, (unit, _better) in E2E.items():
        metrics[key]["unit"] = unit
    # Wall-clock readings as the program reports them, not normalized.
    details = {
        "wall_op_s": _summary(measured.ops.walls),
        "host_scale": _summary(measured.ops.scales),
    }
    details.update({key: _summary(values) for key, values in measured.details.items()})
    if measured.rtts:
        details["master_rtt_ms_p50"] = {"value": statistics.median(measured.rtts) * 1e3}
        details["master_rtt_ms_p99"] = {
            "value": tracing.quantile(measured.rtts, 0.99) * 1e3,
            "n": len(measured.rtts),
        }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "item": wl.item,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "details": details,
        "samples": {
            "wall_op_s": measured.ops.walls,
            "host_scale": measured.ops.scales,
        },
        "per_layer": {
            key: {"value": value, "unit": tracing.PER_LAYER[key][0]}
            for key, value in per_layer.items()
        },
        "outputs": view,
    }
    return result, doc


def _print_result(result: dict) -> None:
    print(
        f"== {result['workload']} seed={result['seed']}  "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for problem in result["problems"]:
        print(f"   FAIL {problem}")
    rows = [(k, v) for k, v in result["metrics"].items()]
    rows += [(f"detail.{k}", v) for k, v in result["details"].items()]
    for key, m in rows:
        spread = (
            f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}" if "q1" in m else ""
        )
        print(f"   {key:<24} {m['value']:>14.6g} {m.get('unit', ''):<6} {spread}")
    for key, m in result["per_layer"].items():
        print(f"   {key:<40} {m['value']:>14.6g} {m['unit']}")


def _line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _run_all(args: argparse.Namespace, out: Path) -> int:
    runs = []
    results = out / "results.json"
    for name in _workload_names():
        results.unlink(missing_ok=True)
        code = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ],
            check=False,
        ).returncode
        if not results.is_file():
            sys.stderr.write(f"bench: workload {name} exited with {code}\n")
            return 1
        runs.extend(json.loads(results.read_text())["runs"])
    results.write_text(json.dumps({"runs": runs}, indent=1))
    key = "per_layer" if args.trace else "metrics"
    metrics = {
        f"{run['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
        for run in runs
        for k, m in run[key].items()
    }
    correct = all(run["correct"] for run in runs)
    print(
        _line(
            correct,
            sum(run["attempted"] for run in runs),
            sum(run["failed"] for run in runs),
            metrics,
        )
    )
    return 0 if correct else 1


def _workload_names() -> List[str]:
    from workloads import WORKLOADS

    return list(WORKLOADS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", default=str(BENCH_DIR / "out"))
    args = parser.parse_args(argv)
    _import_program()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return _run_all(args, out)
    if args.workload not in _workload_names():
        parser.error(f"unknown workload {args.workload!r}; choose from {_workload_names()}")

    # One core for the whole run: the Master's handler thread then wakes
    # on its client's core, so loopback round trips time the program
    # rather than cross-core wake-ups, and passes do not migrate.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (out / "results.json").write_text(json.dumps({"runs": [result]}, indent=1))
    if doc is not None:
        (out / f"{args.workload}.trace.json").write_text(json.dumps(doc))
    _print_result(result)
    key = "per_layer" if args.trace else "metrics"
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result[key].items()}
    print(_line(result["correct"], result["attempted"], result["failed"], metrics))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
