"""Benchmark: engine hot-path throughput (events/sec trajectory).

Runs one representative load scenario through the full engine pipeline
(compile -> traffic -> observe -> detect -> dispatch -> decode ->
collect) under the performance observatory and reports the phase
breakdown.  The trajectory record lands in ``BENCH_engine.json`` — the
ROADMAP's events-per-second series gating every PR: ``events`` and
``event_counts`` are seed-deterministic (regress gates on them), the
derived ``events_per_s`` rides along as wall-only context.
"""

from repro.obs.perf import PerfProbe, maybe_attach
from repro.scenarios import parse_spec
from repro.scenarios.compile import execute_run

from bench_utils import report, run_once

# Mid-size coexistence load: big enough that per-packet work dominates
# setup, small enough to finish in seconds on CI hardware.
SPEC = """\
meta: {name: bench-engine}
run: {kind: load, seed_stride: 1}
area: {preset: testbed}
networks:
  count: 3
  gateways: 3
  devices: 80
  seed_stride: 17
  gateway_id_stride: 100
  node_id_stride: 10000
assignment:
  kind: standard
  tier: {enabled: true, spread: true}
traffic:
  users: 2400
  mean_interval_s: 30.0
  window_s: 12.0
  seed_stride: 31
link: {kind: urban}
"""


def test_engine_throughput(benchmark):
    run = parse_spec(SPEC, "bench-engine.yaml").runs()[0]
    probe = PerfProbe(sample_every=8)

    def workload():
        with maybe_attach(probe):
            return execute_run(run)

    result = run_once(benchmark, workload)
    perf = probe.report()  # defaults to the probe's attached wall time
    assert result["offered"] > 0
    assert perf["deterministic"]["events"] > 0
    report(
        "engine: hot-path throughput",
        {
            "offered": result["offered"],
            "delivered": result["delivered"],
            "prr": result["prr"],
            "perf_deterministic": perf["deterministic"],
            "perf_wall": perf["wall"],
        },
    )
