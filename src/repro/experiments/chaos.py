"""Chaos run: Master outage mid-upgrade plus a gateway crash (extension).

The resilience acceptance scenario: the AlphaWAN Master goes dark for
30 seconds exactly while an operator runs a capacity upgrade, and one
gateway crashes in the middle of the observation window.  A resilient
deployment completes the upgrade from its cached last-known assignment
(degraded mode), keeps serving traffic through the crash, recovers the
frames it lost via confirmed-uplink retransmissions, and re-syncs with
the Master once it returns.

Everything is driven by one :class:`~repro.faults.plan.FaultPlan` seed,
and the returned metrics contain no wall-clock terms — the same seed
reproduces them byte-for-byte.
"""

from __future__ import annotations

from typing import Dict

from ..core.evolutionary import GAConfig
from ..core.intra_planner import IntraNetworkPlanner, PlannerConfig
from ..core.master import MasterNode
from ..core.master_client import MasterClient
from ..core.master_server import MasterServer
from ..core.upgrade import run_capacity_upgrade
from ..faults import (
    AssignmentCache,
    BackhaulFault,
    FaultPlan,
    GatewayCrash,
    MasterOutage,
    RetransmitPolicy,
    RetryPolicy,
)
from ..netserver.server import NetworkServer
from ..node.traffic import duty_cycle_schedule
from ..phy.regions import TESTBED_16
from ..sim.engine import OnlineSimulator
from ..sim.metrics import (
    bucketed_prr,
    outcome_counts,
    retry_delivery_breakdown,
    time_to_recover_s,
)
from ..sim.resilience import run_with_retransmissions
from ..sim.scenario import assign_orthogonal_combos, build_network
from .common import lab_link

__all__ = ["run_chaos"]

WINDOW_S = 60.0
BUCKET_S = 5.0
# The Master vanishes for 30 s starting at t=15 s — squarely across the
# upgrade attempt at t=20 s.
OUTAGE_START_S = 15.0
OUTAGE_S = 30.0
UPGRADE_S = 20.0
# One gateway crashes mid-window, inside the Master outage.
CRASH_S = 30.0
CRASH_DOWN_S = 8.0
# Per-device duty cycle of the data-plane traffic.
DUTY_CYCLE = 0.003
OPERATOR = "op-chaos"


def run_chaos(seed: int = 0, fast: bool = True) -> Dict[str, object]:
    """Run the full chaos scenario; returns deterministic metrics.

    Control plane: a real :class:`MasterServer`/:class:`MasterClient`
    TCP pair under the plan's outage window (a controllable clock pins
    the server inside it — no real 30 s wait).  Data plane: the online
    engine under the same plan, with confirmed-uplink retransmissions.
    The fault schedule is the module constants above.
    """
    grid = TESTBED_16.grid()
    channels = grid.channels()
    net = build_network(
        network_id=1,
        num_gateways=3,
        num_nodes=24 if fast else 60,
        channels=channels[:8],
        seed=seed,
        width_m=300.0,
        height_m=300.0,
    )
    assign_orthogonal_combos(net.devices, channels[:8])
    for dev in net.devices:
        dev.confirmed = True

    crash_gw = net.gateways[0].gateway_id
    lossy_gw = net.gateways[1].gateway_id
    plan = FaultPlan(
        seed=seed,
        gateway_crashes=(
            GatewayCrash(time_s=CRASH_S, gateway_id=crash_gw, down_s=CRASH_DOWN_S),
        ),
        backhaul_faults=(
            BackhaulFault(
                gateway_id=lossy_gw,
                start_s=CRASH_S,
                end_s=CRASH_S + CRASH_DOWN_S,
                drop_prob=0.3,
                delay_mean_s=0.05,
                delay_jitter_s=0.02,
            ),
        ),
        master_outages=(
            MasterOutage(start_s=OUTAGE_START_S, duration_s=OUTAGE_S),
        ),
    )

    ga = (
        GAConfig(population=16, generations=15, seed=seed, patience=5)
        if fast
        else GAConfig(population=40, generations=60, seed=seed, patience=20)
    )
    link = lab_link(seed=seed)
    planner = IntraNetworkPlanner(
        net, channels, link=link, config=PlannerConfig(ga=ga)
    )

    # -- control plane: upgrade through the Master outage ----------------
    clock_now = [0.0]
    cache = AssignmentCache()
    master = MasterNode(grid, expected_networks=2)
    netserver = NetworkServer(1, net.gateways, net.devices)
    retry = RetryPolicy(
        max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, deadline_s=30.0
    )
    with MasterServer(
        master, fault_plan=plan, clock=lambda: clock_now[0]
    ) as server:
        with MasterClient(
            server.address,
            timeout_s=2.0,
            retry=retry,
            retry_seed=seed,
            sleep=lambda _s: None,  # backoff is modelled, not waited out
        ) as client:
            # Healthy sync at t=0 pre-warms the last-known-assignment cache.
            netserver.sync_with_master(client, OPERATOR, cache=cache)
            # Mid-outage upgrade: every request is dropped; the upgrade
            # must complete on the cached assignment in degraded mode.
            clock_now[0] = UPGRADE_S
            outcome, latency = run_capacity_upgrade(
                planner,
                master_client=client,
                operator=OPERATOR,
                agent_seed=seed,
                assignment_cache=cache,
            )
            netserver.sync_with_master(client, OPERATOR, cache=cache)
            degraded_during_outage = netserver.degraded
            # The outage ends; the next sync clears degraded mode.
            clock_now[0] = OUTAGE_START_S + OUTAGE_S + 1.0
            netserver.sync_with_master(client, OPERATOR, cache=cache)
            client_retries = client.retries
            client_reconnects = client.reconnects
        dropped_requests = server.dropped_requests

    # -- data plane: the crash window with retransmissions ---------------
    traffic = duty_cycle_schedule(
        net.devices, window_s=WINDOW_S, seed=seed + 1, duty_cycle=DUTY_CYCLE
    )
    sim = OnlineSimulator(net.gateways, net.devices, link=link)
    res = run_with_retransmissions(
        sim,
        traffic,
        fault_plan=plan,
        policy=RetransmitPolicy(max_retries=2),
        window_s=WINDOW_S,
    )
    for records in res.result.receptions.values():
        netserver.ingest(records)

    # Recovery is judged against the run's own pre-fault PRR: a dense
    # deployment with a lower steady state still "recovers" once it is
    # back within 90 % of its healthy level.
    prr_series = bucketed_prr(res.result, WINDOW_S, BUCKET_S)
    pre_fault = prr_series[: int(CRASH_S // BUCKET_S)]
    threshold = 0.9 * (sum(pre_fault) / len(pre_fault)) if pre_fault else 0.9

    # Wall-clock terms (CP solve time, measured RTTs) are deliberately
    # excluded: everything below reproduces byte-for-byte under a seed.
    return {
        "window_s": WINDOW_S,
        "bucket_s": BUCKET_S,
        "fault_plan": plan.to_dict(),
        "upgrade_degraded": latency.degraded,
        "upgrade_distribution_s": latency.distribution_s,
        "upgrade_reboot_s": latency.reboot_s,
        "planned_channels": len(planner.channels),
        "connectivity_violations": outcome.solution.connectivity_violations,
        "netserver_degraded_during_outage": degraded_during_outage,
        "netserver_degraded_after_outage": netserver.degraded,
        "netserver_degraded_syncs": netserver.degraded_syncs,
        "master_dropped_requests": dropped_requests,
        "client_retries": client_retries,
        "client_reconnects": client_reconnects,
        "offered": len(traffic),
        "prr": res.result.prr(),
        "bucketed_prr": prr_series,
        "outcome_counts": outcome_counts(res.result),
        "retry": retry_delivery_breakdown(res.result),
        "retransmissions": len(res.retransmissions),
        "retransmission_rounds": res.rounds,
        "recovery_threshold": threshold,
        "time_to_recover_s": time_to_recover_s(
            res.result, CRASH_S, WINDOW_S, bucket_s=BUCKET_S, threshold=threshold
        ),
        "degraded_time_s": plan.degraded_time_s(WINDOW_S),
        "unique_frames_delivered": len(netserver.received_node_ids()),
    }

