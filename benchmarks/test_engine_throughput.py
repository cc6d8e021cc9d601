"""Benchmark: engine hot-path throughput (events/sec trajectory).

Runs one representative load run through the full engine pipeline
(traffic -> observe -> detect -> dispatch -> decode -> collect) under
the performance observatory and reports the phase breakdown.  The
trajectory record lands in ``BENCH_engine.json`` — the ROADMAP's
events-per-second series gating every PR: ``events`` and
``event_counts`` are seed-deterministic (regress gates on them), the
derived ``events_per_s`` rides along as wall-only context.
"""

from repro.baselines.standard import apply_standard_lorawan
from repro.experiments.common import TESTBED_AREA_M, emulated_traffic
from repro.obs.perf import PerfProbe
from repro.phy.regions import TESTBED_16
from repro.sim.scenario import assign_tier_by_reach, build_network
from repro.sim.simulator import Simulator
from repro.sim.topology import LinkBudget

from bench_utils import report, run_once

# Mid-size coexistence load: big enough that per-packet work dominates
# setup, small enough to finish in seconds on CI hardware.  Three
# networks of 3 gateways and 80 devices share the testbed area, each on
# standard LoRaWAN plans with reach-based tiers, and each carries 2,400
# emulated users over a 12 s window on the urban link.
NETWORKS = 3
USERS = 2400


def _load_run():
    grid = TESTBED_16.grid()
    width_m, height_m = TESTBED_AREA_M
    networks = [
        build_network(
            network_id=k + 1,
            num_gateways=3,
            num_nodes=80,
            channels=grid.channels(),
            seed=17 * k,
            gateway_id_base=100 * k,
            node_id_base=10000 * k,
            width_m=width_m,
            height_m=height_m,
        )
        for k in range(NETWORKS)
    ]
    for k, net in enumerate(networks):
        apply_standard_lorawan(net, grid, seed=17 * k)
        assign_tier_by_reach(net, k_nearest=3, spread_seed=17 * k)
    txs = []
    for k, net in enumerate(networks):
        txs.extend(
            emulated_traffic(
                net.devices,
                total_users=USERS,
                mean_interval_s=30.0,
                window_s=12.0,
                seed=31 * k,
            )
        )
    txs.sort(key=lambda tx: tx.start_s)
    gateways = [gw for net in networks for gw in net.gateways]
    devices = [dev for net in networks for dev in net.devices]
    result = Simulator(gateways, devices, link=LinkBudget()).run(txs)
    return {
        "offered": len(txs),
        "delivered": result.delivered_count(),
        "prr": result.prr(),
    }


def test_engine_throughput(benchmark):
    probe = PerfProbe(sample_every=8)

    def workload():
        with probe.attach():
            return _load_run()

    result = run_once(benchmark, workload)
    perf = probe.report()  # defaults to the probe's attached wall time
    assert result["offered"] > 0
    assert perf["deterministic"]["events"] > 0
    report(
        "engine: hot-path throughput",
        {
            **result,
            "perf_deterministic": perf["deterministic"],
            "perf_wall": perf["wall"],
        },
    )
