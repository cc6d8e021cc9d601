"""Benchmark: campaign runner overhead vs direct scenario invocation.

Times a 4-run load sweep twice — once as a plain loop over
:func:`repro.scenarios.compile.execute_run` (what a hand-written script
would do) and once through :func:`repro.campaign.run_campaign` (which
adds manifests, atomic result writes, and the index).  The campaign
layer must cost < 5 % on top of the simulations it orchestrates; the
trajectory lands in ``BENCH_campaign.json``.
"""

import shutil
import tempfile
import time

from repro.campaign import run_campaign
from repro.scenarios import parse_spec
from repro.scenarios.compile import execute_run

from bench_utils import report, run_once

SPEC = """\
meta: {name: bench-campaign}
run: {kind: load, seed_stride: 1}
area: {preset: testbed}
networks:
  count: 2
  gateways: 3
  devices: 60
  seed_stride: 17
  gateway_id_stride: 100
  node_id_stride: 10000
assignment:
  kind: standard
  tier: {enabled: true, spread: true}
traffic:
  users: 1500
  mean_interval_s: 35.0
  window_s: 10.0
  seed_stride: 31
link: {kind: urban}
sweep:
  traffic.users: [600, 1000, 1400, 1800]
"""


def _spec():
    return parse_spec(SPEC, "bench-campaign.yaml")


def test_campaign_overhead_vs_direct(benchmark):
    spec = _spec()
    runs = spec.runs()

    # Direct invocation: the compiled runs, no store, no manifests.
    # Observed the same way run_once observes the campaign leg, so the
    # two timings differ only by the runner layer itself.
    from repro.obs import observe

    t0 = time.perf_counter()
    with observe(trace=True, metrics=False) as session:
        session.recorder.max_events = 0
        direct = [execute_run(run) for run in runs]
    direct_s = time.perf_counter() - t0

    out_dir = tempfile.mkdtemp(prefix="bench-campaign-")
    try:
        t0 = time.perf_counter()
        summary = run_once(
            benchmark, run_campaign, spec=spec, out_dir=out_dir, jobs=1
        )
        campaign_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    overhead = (campaign_s - direct_s) / direct_s
    report(
        "Campaign: 4-run sweep, runner overhead vs direct invocation",
        {
            "runs": len(runs),
            "offered_per_run": [r["offered"] for r in direct],
            "direct_s": round(direct_s, 3),
            "campaign_s": round(campaign_s, 3),
            "overhead_frac": round(overhead, 4),
            "executed": len(summary["executed"]),
        },
    )
    assert len(summary["executed"]) == len(runs)
    assert overhead < 0.05
