"""The benchmark's four workloads.

Each workload builds its inputs from a seed with the program's public
builders, then exposes one timed operation.  The program under test
receives only the generated deployment and traffic.  Outputs of every
operation are returned as plain dicts so the runner can compare them
across repetitions and against ``golden.json``.

Why these four: ``fig13-12k`` and ``fig13-2k`` carry the same packet
count at six-fold different overlap density, so a decode-path change
moves the first and barely the second; ``coexist-faults`` drives the
second (online) reception loop with foreign traffic and faults;
``upgrade-12k`` is the planner + Master path, which no sim workload
touches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed
from repro.baselines.standard import apply_standard_lorawan
from repro.core.evolutionary import GAConfig
from repro.core.intra_planner import IntraNetworkPlanner, PlannerConfig
from repro.core.master import MasterNode
from repro.core.master_client import MasterClient
from repro.core.master_server import MasterServer
from repro.core.upgrade import run_capacity_upgrade
from repro.experiments.common import TESTBED_AREA_M, emulated_traffic, lab_link
from repro.faults import BackhaulFault, DecoderDegradation, FaultPlan, GatewayCrash
from repro.phy.regions import TESTBED_16, TESTBED_48
from repro.sim.engine import OnlineSimulator
from repro.sim.metrics import outcome_counts
from repro.sim.scenario import assign_tier_by_reach, build_network
from repro.sim.simulator import Simulator
from repro.sim.topology import LinkBudget

# Fig 13: 15 gateways, 240 physical devices emulating the user
# population at a 32 s mean interval; the AlphaWAN plan is sized for
# the 12k-user point and shared by both scales.
FIG13_INTERVAL_S = 32.0
FIG13_PLAN_USERS = 12_000

# coexist-faults: three fig04b-style operator networks on one 1.6 MHz
# block.  The window is short because foreign packets pile up on the
# same eight channels: a 3 s window already costs about 3 s per pass.
COEXIST_NETWORKS = 3
COEXIST_USERS = 4_000
COEXIST_INTERVAL_S = 35.0
COEXIST_WINDOW_S = 3.0

# upgrade-12k: the Fig 17a top point (12k users, 12 gateways, 30
# devices per 1k users) with run_fig17a's solver budget.
UPGRADE_USERS = 12_000
UPGRADE_GATEWAYS = 12
UPGRADE_DEVICES = 360
UPGRADE_OPERATOR = "op-1"
MASTER_PAIRS_PER_BATCH = 250
MASTER_TRACED_PAIRS = 500


def _digest(value: object) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _traffic_digest(txs) -> str:
    return _digest(
        [
            [t.network_id, t.node_id, t.counter, t.start_s, t.channel.center_hz, int(t.sf)]
            for t in txs
        ]
    )


@dataclass
class Timed:
    """Repetitions of one timed operation, each with its host-speed scale."""

    walls: List[float] = field(default_factory=list)
    items: List[int] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    outputs: List[object] = field(default_factory=list)

    def seconds(self) -> List[float]:
        """Nominal-host seconds per repetition."""
        return [w * s for w, s in zip(self.walls, self.scales)]

    def rates(self) -> List[float]:
        """Nominal-host work items per second per repetition."""
        return [n / (w * s) for n, w, s in zip(self.items, self.walls, self.scales)]


@dataclass
class Measured:
    """What one workload's timed phase produced."""

    ops: Timed
    throughput: Timed  # the repetitions behind items_per_s
    master: Optional[dict] = None
    rtts: List[float] = field(default_factory=list)
    details: Dict[str, List[float]] = field(default_factory=dict)


def timed_loop(
    op: Callable[[], Tuple[object, int]],
    seconds: float,
    guard: Callable[[], None],
    refs_per_side: int = 3,
) -> Timed:
    """Run ``op`` until ``seconds`` of it were measured (at least once).

    ``op`` returns (output, work items); ``guard`` runs around every
    operation and raises if the default configuration was left.  Each
    repetition is scaled by host-speed samples taken right before and
    after it, which tracks contention bursts better than one scale for
    the whole run.
    """
    timed = Timed()
    while not timed.walls or sum(timed.walls) < seconds:
        refs: List[float] = []
        hostspeed.sample(refs, refs_per_side)
        guard()
        t0 = perf_counter()
        output, items = op()
        wall = perf_counter() - t0
        guard()
        hostspeed.sample(refs, refs_per_side)
        timed.walls.append(wall)
        timed.items.append(items)
        timed.scales.append(hostspeed.scale(refs))
        timed.outputs.append(output)
    return timed


class SimWorkload:
    """A simulator pass over a fixed deployment and traffic window."""

    online = False
    item = "offered packets"

    def __init__(self, name: str, why: str) -> None:
        self.name = name
        self.why = why

    def build(self, seed: int):
        """(gateways, devices, transmissions, extra fingerprint, fault plan)."""
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        gateways, devices, txs, extra, plan = self.build(seed)
        return {
            "gateways": gateways,
            "devices": devices,
            "txs": txs,
            "plan": plan,
            "fingerprint": _digest([_traffic_digest(txs), extra]),
        }

    def teardown(self, state: dict) -> None:
        pass

    def op(self, state: dict) -> Tuple[dict, int]:
        sim_cls = OnlineSimulator if self.online else Simulator
        sim = sim_cls(state["gateways"], state["devices"], link=LinkBudget())
        if self.online:
            result = sim.run_online(state["txs"], fault_plan=state["plan"])
        else:
            result = sim.run(state["txs"])
        output = {
            "offered": result.offered_count(),
            "delivered": result.delivered_count(),
            "outcome_counts": outcome_counts(result),
        }
        return output, output["offered"]

    def measure(self, state: dict, seconds: float, guard) -> Measured:
        passes = timed_loop(lambda: self.op(state), seconds, guard)
        return Measured(ops=passes, throughput=passes)

    def traced(self, state: dict) -> Tuple[dict, Optional[dict], float]:
        """(operation output, Master loop summary, operation wall)."""
        t0 = perf_counter()
        output, _ = self.op(state)
        return output, None, perf_counter() - t0

    def check(self, output: dict) -> List[str]:
        """Invariants that hold for every seed."""
        counts = output["outcome_counts"]
        problems = []
        if not 0 < output["delivered"] <= output["offered"]:
            problems.append(f"delivered {output['delivered']} of {output['offered']}")
        if counts.get("received", 0) < output["delivered"]:
            problems.append("fewer received records than delivered packets")
        if self.online:
            if counts.get("gateway_offline", 0) == 0:
                problems.append("no packet met a crashed gateway")
            if counts.get("filtered_foreign", 0) == 0:
                problems.append("no foreign packet seized a decoder")
        elif counts.get("gateway_offline", 0) or counts.get("backhaul_lost", 0):
            problems.append("fault outcomes without a fault plan")
        return problems


class Fig13(SimWorkload):
    """Fig 13 AlphaWAN arm: one planned network under emulated users."""

    def __init__(self, name: str, why: str, users: int, window_s: float) -> None:
        super().__init__(name, why)
        self.users = users
        self.window_s = window_s

    def build(self, seed: int):
        grid = TESTBED_48.grid()
        chans = grid.channels()
        width, height = TESTBED_AREA_M
        net = build_network(
            network_id=1,
            num_gateways=15,
            num_nodes=240,
            channels=chans[:8],
            seed=seed,
            width_m=width,
            height_m=height,
        )
        apply_standard_lorawan(net, grid, seed=seed)
        assign_tier_by_reach(net, k_nearest=12, spread_seed=seed)
        rate = FIG13_PLAN_USERS / FIG13_INTERVAL_S / len(net.devices)
        outcome = IntraNetworkPlanner(
            net,
            chans,
            link=LinkBudget(),
            config=PlannerConfig(
                ga=GAConfig(population=30, generations=40, seed=seed, patience=15)
            ),
            traffic={dev.node_id: rate * 0.25 for dev in net.devices},
        ).plan_and_apply()
        txs = emulated_traffic(
            net.devices,
            total_users=self.users,
            mean_interval_s=FIG13_INTERVAL_S,
            window_s=self.window_s,
            seed=seed + self.users,
        )
        extra = outcome.ga_result.best_fitness
        return net.gateways, net.devices, txs, extra, None


class CoexistFaults(SimWorkload):
    """Three coexisting networks on the online engine under a fault plan."""

    online = True

    def build(self, seed: int):
        grid = TESTBED_16.grid()
        width, height = TESTBED_AREA_M
        networks = []
        txs = []
        for k in range(COEXIST_NETWORKS):
            net = build_network(
                network_id=k + 1,
                num_gateways=5,
                num_nodes=80,
                channels=grid.channels()[:8],
                seed=seed + 17 * k,
                gateway_id_base=100 * k,
                node_id_base=10_000 * k,
                width_m=width,
                height_m=height,
            )
            apply_standard_lorawan(net, grid, seed=seed + 17 * k)
            assign_tier_by_reach(net, spread_seed=seed + 17 * k)
            networks.append(net)
            txs.extend(
                emulated_traffic(
                    net.devices,
                    total_users=COEXIST_USERS,
                    mean_interval_s=COEXIST_INTERVAL_S,
                    window_s=COEXIST_WINDOW_S,
                    seed=seed + 31 * k,
                )
            )
        txs.sort(key=lambda t: t.start_s)
        w = COEXIST_WINDOW_S
        plan = FaultPlan(
            seed=seed,
            gateway_crashes=(
                GatewayCrash(time_s=0.2 * w, gateway_id=0, down_s=0.25 * w),
                GatewayCrash(time_s=0.55 * w, gateway_id=101, down_s=0.2 * w),
            ),
            backhaul_faults=(
                BackhaulFault(
                    gateway_id=202,
                    start_s=0.3 * w,
                    end_s=0.7 * w,
                    drop_prob=0.3,
                    delay_mean_s=0.05,
                    delay_jitter_s=0.02,
                ),
            ),
            decoder_degradations=(
                DecoderDegradation(time_s=0.4 * w, gateway_id=2, decoders=4, duration_s=0.3 * w),
            ),
        )
        gateways = [gw for net in networks for gw in net.gateways]
        devices = [dev for net in networks for dev in net.devices]
        return gateways, devices, txs, plan.to_dict(), plan


class Upgrade12k:
    """Fig 17a top point: capacity upgrades through a loopback Master."""

    item = "Master round trips"

    def __init__(self, name: str, why: str) -> None:
        self.name = name
        self.why = why

    def setup(self, seed: int) -> dict:
        grid = TESTBED_48.grid()
        width, height = TESTBED_AREA_M
        net = build_network(
            network_id=1,
            num_gateways=UPGRADE_GATEWAYS,
            num_nodes=UPGRADE_DEVICES,
            channels=grid.channels()[:8],
            seed=seed,
            width_m=width,
            height_m=height,
        )
        load = UPGRADE_USERS / UPGRADE_DEVICES / 100.0
        traffic = {dev.node_id: load for dev in net.devices}
        # expected_networks=1: the single assignment is the whole grid,
        # so the CP instance is run_fig17a's.
        server = MasterServer(MasterNode(grid, expected_networks=1)).start()
        try:
            client = MasterClient(server.address).connect()
        except OSError:
            server.close()
            raise
        positions = [[d.position.x, d.position.y] for d in net.devices]
        return {
            "grid": grid,
            "net": net,
            "traffic": traffic,
            "link": lab_link(seed),
            "seed": seed,
            "server": server,
            "client": client,
            "fingerprint": _digest([positions, load]),
        }

    def teardown(self, state: dict) -> None:
        state["client"].close()
        state["server"].close()

    def op(self, state: dict) -> Tuple[dict, float, float]:
        """One upgrade cycle; returns (output, CP solve s, modelled total s)."""
        seed = state["seed"]
        planner = IntraNetworkPlanner(
            state["net"],
            state["grid"].channels(),
            link=state["link"],
            config=PlannerConfig(
                ga=GAConfig(
                    population=40,
                    generations=30 + UPGRADE_USERS // 400,
                    seed=seed,
                    patience=0,
                )
            ),
            traffic=state["traffic"],
        )
        outcome, latency = run_capacity_upgrade(
            planner,
            master_client=state["client"],
            operator=UPGRADE_OPERATOR,
            agent_seed=seed,
        )
        released = state["client"].release(UPGRADE_OPERATOR)
        configs = [
            [gw.gateway_id, [c.center_hz for c in gw.channels]]
            for gw in state["net"].gateways
        ]
        output = {
            "best_fitness": outcome.ga_result.best_fitness,
            "evaluations": outcome.ga_result.evaluations,
            "config_digest": _digest(configs),
            "assigned_channels": len(planner.channels),
            "distribution_s": latency.distribution_s,
            "reboot_s": latency.reboot_s,
            "degraded": latency.degraded,
            "released": released,
        }
        return output, latency.cp_solving_s, latency.total_s

    def master_batch(self, state: dict, pairs: int, rtts: List[float], into: dict) -> None:
        """``pairs`` register/release round trips, tallied into ``into``.

        Every register must return the loop's first assignment and every
        release must report the slot as held.
        """
        client = state["client"]
        bad = 0
        for _ in range(pairs):
            t0 = perf_counter()
            assignment = client.register(UPGRADE_OPERATOR)
            t1 = perf_counter()
            held = client.release(UPGRADE_OPERATOR)
            t2 = perf_counter()
            rtts.append(t1 - t0)
            rtts.append(t2 - t1)
            indices = list(assignment.channel_indices)
            if into.setdefault("channel_indices", indices) != indices:
                bad += 1
            if held is not True:
                bad += 1
        into["round_trips"] = into.get("round_trips", 0) + 2 * pairs
        into["mismatches"] = into.get("mismatches", 0) + bad

    def measure(self, state: dict, seconds: float, guard) -> Measured:
        solve, total, rtts = [], [], []
        master: dict = {}

        def cycle() -> Tuple[dict, int]:
            output, cp_s, total_s = self.op(state)
            solve.append(cp_s)
            total.append(total_s)
            return output, 1

        def batch() -> Tuple[None, int]:
            self.master_batch(state, MASTER_PAIRS_PER_BATCH, rtts, master)
            return None, 2 * MASTER_PAIRS_PER_BATCH

        # Most of the budget goes to upgrade cycles, the rest to the
        # closed register/release loop on the same connection, whose
        # round trips per second are this workload's items_per_s.
        cycles = timed_loop(cycle, 0.85 * seconds, guard)
        loop = timed_loop(batch, 0.15 * seconds, guard, refs_per_side=1)
        return Measured(
            ops=cycles,
            throughput=loop,
            master=master,
            rtts=rtts,
            details={"cp_solve_s": solve, "upgrade_s": total},
        )

    def traced(self, state: dict) -> Tuple[dict, Optional[dict], float]:
        t0 = perf_counter()
        output, _, _ = self.op(state)
        wall = perf_counter() - t0
        master: dict = {}
        self.master_batch(state, MASTER_TRACED_PAIRS, [], master)
        return output, master, wall

    def check(self, output: dict) -> List[str]:
        problems = []
        if output["degraded"]:
            problems.append("upgrade ran degraded against a live Master")
        if output["released"] is not True:
            problems.append("release after the upgrade returned False")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Fig13(
            "fig13-12k",
            "Fig 13 top point: dense overlap makes the interference scan and decode the bulk of a pass",
            users=12_000,
            window_s=10.0,
        ),
        Fig13(
            "fig13-2k",
            "Fig 13 smallest point: same packet count at 1/6 the overlap, so per-observation work dominates",
            users=2_000,
            window_s=60.0,
        ),
        CoexistFaults(
            "coexist-faults",
            "three coexisting networks with crashes, backhaul loss and decoder degradation on the online engine",
        ),
        Upgrade12k(
            "upgrade-12k",
            "Fig 17a top point: CP solve plus Master round trips on loopback; no simulator layer",
        ),
    )
}
