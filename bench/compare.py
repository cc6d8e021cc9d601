"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage::

    python bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``results.json``
written by ``run.py`` or a directory searched recursively for them.  For
every workload and end-to-end metric it prints both medians and
quartiles and one verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: A's own run-to-run spread (interquartile range over
  median) is wider than the bound, so a change of that size cannot be
  told from noise, unless every run of B reads better than every run
  of A;
* ``within``: otherwise.

With one run on a side its spread is the run's own quartiles over its
repetitions.  Exits 1 when any pair is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> List[dict]:
    """Every run in a results file, or in all results files under a directory."""
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    return [run for f in files for run in json.loads(f.read_text())["runs"]]


def summarize(samples: Sequence[dict]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric over a side's runs."""
    values = [s["value"] for s in samples]
    if len(values) == 1:
        median, q1, q3 = values[0], samples[0]["q1"], samples[0]["q3"]
    else:
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def verdict(
    a: Sequence[dict], b: Sequence[dict], bound: float, better: str
) -> Tuple[str, float]:
    """(verdict, relative worsening of B against A; negative is better)."""
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    if sa["spread"] > bound:
        a_values = [s["value"] for s in a]
        b_values = [s["value"] for s in b]
        if better == "lower":
            b_wins = max(b_values) < min(a_values)
        else:
            b_wins = min(b_values) > max(a_values)
        return ("within" if b_wins else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "within"), worse_by


def compare(a_runs: List[dict], b_runs: List[dict], metrics: List[dict]) -> List[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    for workload in workloads:
        for spec in metrics:
            name = spec["name"]
            a = [r["metrics"][name] for r in a_runs if r["workload"] == workload]
            b = [r["metrics"][name] for r in b_runs if r["workload"] == workload]
            result, worse_by = verdict(a, b, spec["bound"], spec["better"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "a": summarize(a),
                    "b": summarize(b),
                    "worse_by": worse_by,
                    "bound": spec["bound"],
                    "verdict": result,
                }
            )
    return rows


def _side(s: Dict[str, float]) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), metrics)
    print(
        f"{'workload':<15} {'metric':<12} {'unit':<4} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'worse by':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<15} {row['metric']:<12} {row['unit']:<4} "
            f"{_side(row['a']):<34} {_side(row['b']):<34} "
            f"{row['worse_by']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
