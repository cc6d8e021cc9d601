"""Intra-network channel planning (AlphaWAN Strategies 1, 2, 7).

Builds a :class:`~repro.core.cp_problem.CPInput` from a deployed
network, seeds the evolutionary solver with a greedy construction, and
applies the resulting plan: heterogeneous per-gateway channel windows
(Strategies 1+2) and per-node channel/data-rate/power assignments that
steer users away from congested gateways (Strategy 7).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..gateway.gateway import Gateway
from ..node.device import EndDevice
from ..obs.perf import Phase, phase_timed
from ..phy.channels import Channel
from ..phy.link import DEFAULT_TIERS, DistanceTier
from ..phy.lora import DR_TO_SF, SNR_THRESHOLD_DB
from ..sim.scenario import Network
from ..sim.topology import LinkBudget
from .cp_problem import CPEvaluator, CPInput, CPSolution, GatewaySpec, NodeSpec
from .evolutionary import GAConfig, GAResult, evolve

__all__ = ["PlannerConfig", "PlanOutcome", "build_cp_input", "IntraNetworkPlanner"]

_NUM_DRS = 6


@dataclass(frozen=True)
class PlannerConfig:
    """Planner variants and solver hyper-parameters.

    Attributes:
        optimize_channel_count: Strategy 1 — let the solver shrink the
            number of operating channels per gateway.  When False, every
            gateway keeps its hardware maximum (the paper's
            "AlphaWAN (Strategy 1 disabled)" arm).
        optimize_nodes: Strategy 7 node side — let the solver move nodes
            across channels/tiers.  When False only gateway windows are
            planned (the Figure 12c "w/o node side" arm).
        tiers: Distance-tier mapping table (ADR/TPC discretization).
        snr_margin_db: Safety margin above the demodulation threshold a
            link must clear to count as reachable (covers interference
            and fading, like the ADR installation margin).
        ga: Evolutionary-engine settings.
    """

    optimize_channel_count: bool = True
    optimize_nodes: bool = True
    tiers: Tuple[DistanceTier, ...] = DEFAULT_TIERS
    snr_margin_db: float = 3.0
    ga: GAConfig = field(default_factory=GAConfig)
    # Objective-weight overrides (None keeps the calibrated defaults);
    # used by the ablation benchmarks.
    cell_overload_weight: Optional[float] = None
    redundancy_weight: Optional[float] = None
    unserved_cost: Optional[float] = None


def build_cp_input(
    network: Network,
    channels: Sequence[Channel],
    link: LinkBudget,
    traffic: Optional[Mapping[int, float]] = None,
    tiers: Tuple[DistanceTier, ...] = DEFAULT_TIERS,
    snr_margin_db: float = 3.0,
) -> CPInput:
    """Assemble the CP problem instance for one network.

    Reachability ``r[i][j][l]`` comes from the link budget: node ``i``
    reaches gateway ``j`` at tier ``l`` when the SNR at the tier's
    transmit power clears the tier's data-rate demodulation threshold.

    Args:
        network: The deployment to plan.
        channels: The spectrum the operator may use (its channel grid,
            or the misaligned sub-grid assigned by the Master).
        link: Link-budget calculator for the area.
        traffic: Optional per-node expected concurrent load ``u_i``
            (defaults to 1.0: the concurrent-burst worst case).
        tiers: Distance-tier table.
    """
    gateways = [
        GatewaySpec(
            gateway_id=gw.gateway_id,
            decoders=gw.model.decoders,
            max_channels=gw.model.max_channels,
            max_span_channels=max(
                1, int(gw.model.rx_spectrum_hz // 200_000)
            ),
        )
        for gw in network.gateways
    ]
    nodes: List[NodeSpec] = []
    for dev in network.devices:
        reach_per_tier: List[Tuple[int, ...]] = []
        for tier in tiers:
            threshold = SNR_THRESHOLD_DB[DR_TO_SF[tier.dr]] + snr_margin_db
            reachable = tuple(
                j
                for j, gw in enumerate(network.gateways)
                if link.snr_db(tier.tx_power_dbm, dev.position, gw.position)
                >= threshold
            )
            reach_per_tier.append(reachable)
        u = 1.0 if traffic is None else float(traffic.get(dev.node_id, 0.0))
        nodes.append(
            NodeSpec(node_id=dev.node_id, traffic=u, reach=tuple(reach_per_tier))
        )
    return CPInput(
        gateways=gateways, nodes=nodes, channels=list(channels), tiers=tiers
    )


def _greedy_windows(
    cp: CPInput, optimize_channel_count: bool
) -> List[Tuple[int, int]]:
    """Capacity-matched, tiled gateway windows (Strategies 1+2 seed).

    Window size is chosen so the window's orthogonal capacity
    (channels x 6 DRs) just exceeds the gateway's decoder pool —
    concentrating decoders on few channels without stranding them —
    and starts are spread across the spectrum so co-located gateways
    observe distinct packet subsets.
    """
    num_ch = len(cp.channels)
    windows: List[Tuple[int, int]] = []
    num_gw = len(cp.gateways)
    for j, gw in enumerate(cp.gateways):
        max_count = min(gw.max_channels, gw.max_span_channels, num_ch)
        if optimize_channel_count:
            # Cover the spectrum with (near-)disjoint windows: overlap
            # duplicates decoder load (a packet seizes a decoder at every
            # gateway that hears it), so disjoint tiling is the seed.
            count = min(max_count, max(1, -(-num_ch // num_gw)))
        else:
            count = max_count
        if num_ch > count:
            start = (j * count) % (num_ch - count + 1)
        else:
            start = 0
        windows.append((start, count))
    return windows


def _greedy_nodes(
    cp: CPInput,
    windows: Sequence[Tuple[int, int]],
) -> Tuple[List[int], List[int]]:
    """Load-balancing node assignment over the given gateway windows.

    Nodes (fewest-options first) pick the (channel, tier) that avoids
    (channel, DR) cell collisions and minimizes the decoder overload it
    creates across every gateway that would hear the packet.
    """
    # Python floats round exactly like numpy float64 scalars, at a
    # fraction of the per-operation cost.  The built-in ``sum()`` does
    # not: from Python 3.12 it adds floats with compensated summation,
    # so float sums here are written out left to right.
    num_ch = len(cp.channels)
    cell_load = [[0.0] * _NUM_DRS for _ in range(num_ch)]
    gw_load = [0.0] * len(cp.gateways)
    decoders = [float(g.decoders) for g in cp.gateways]
    window_chs = [
        range(start, min(start + count, num_ch)) for start, count in windows
    ]
    # Channel -> gateways whose window contains it.
    ch_gws: List[List[int]] = [[] for _ in range(num_ch)]
    for j, chs in enumerate(window_chs):
        for ch in chs:
            ch_gws[ch].append(j)
    parked = [ch for ch in range(num_ch) if not ch_gws[ch]]
    tier_drs = [int(tier.dr) for tier in cp.tiers]

    order = sorted(
        range(len(cp.nodes)),
        key=lambda i: sum(len(r) for r in cp.nodes[i].reach),
    )
    node_ch = [0] * len(cp.nodes)
    node_tier = [0] * len(cp.nodes)
    for i in order:
        node = cp.nodes[i]
        u = node.traffic
        reach_sets = [set(r) for r in node.reach]
        # Decoder overload each gateway would gain by hearing this node.
        overload = [
            max(0.0, g_load + u - cap) - max(0.0, g_load - cap)
            for g_load, cap in zip(gw_load, decoders)
        ]
        # Cell preference: an empty cell is best; among occupied cells,
        # prefer the *most* loaded (a collision there is already sunk,
        # while touching a singleton cell kills a healthy packet too).
        best = None  # (occupied, -cell_load, overload_delta, tier_idx, ch)
        for l, reach in enumerate(reach_sets):
            if not reach:
                continue
            dr = tier_drs[l]
            candidate_chs = {ch for j in reach for ch in window_chs[j]}
            for ch in candidate_chs:
                affected = [j for j in ch_gws[ch] if j in reach]
                if not affected:
                    continue
                delta = 0.0
                for j in affected:
                    delta += overload[j]
                # Redundant gateways beyond the first waste decoders.
                delta += 0.25 * (len(affected) - 1) * u
                load = cell_load[ch][dr]
                # A cell stays collision-free while its expected
                # concurrent load (including this node) is within one
                # packet; beyond that, adding to it means a collision.
                collides = 1 if load + u > 1.0 + 1e-9 else 0
                key = (collides, -load if collides else load, delta, l, ch)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 0 and best[2] == 0.0:
                break  # perfect slot found at the cheapest tier
        if best is None:
            continue  # unreachable node; repair/penalty handles it
        if best[0] == 1:
            # Every reachable cell is occupied: serving would collide.
            # Park the node on an unserved channel instead — its packets
            # are truncated by every front-end and cost no decoders.
            if parked:
                node_ch[i] = parked[i % len(parked)]
                node_tier[i] = 0
                continue
        _, _, _, l, ch = best
        node_ch[i] = ch
        node_tier[i] = l
        cell_load[ch][tier_drs[l]] += u
        for j in ch_gws[ch]:
            if j in reach_sets[l]:
                gw_load[j] += u
    return node_ch, node_tier


def _make_repair(evaluator: CPEvaluator):
    """Constraint repair: reconnect nodes stranded by the current windows."""
    reach = [node.reach for node in evaluator.cp.nodes]
    base = 2 * evaluator.num_gw

    def repair(genome: np.ndarray, rng: random.Random) -> np.ndarray:
        if evaluator.fixed_nodes is not None:
            return genome
        starts, counts, node_ch, node_tier = evaluator.split(genome)
        link = evaluator.link_matrix(starts, counts, node_ch, node_tier)
        # Gateway-major, as in ``CPEvaluator.risk``: the per-node test
        # then reduces contiguous rows.
        disconnected = np.flatnonzero(~np.ascontiguousarray(link.T).any(axis=0))
        if disconnected.size == 0:
            return genome
        # Only reconnect to gateways that still have spare decoders:
        # parking excess nodes is a legitimate (soft-penalized) choice
        # when capacity is exhausted, and forcing them back would poison
        # the serving pools.
        loads = evaluator.traffic @ link
        spare = (loads < evaluator.decoders).tolist()
        windows = [
            range(start, end)
            for start, end in zip(
                starts.tolist(),
                np.minimum(starts + counts, evaluator.num_channels).tolist(),
            )
        ]
        out = genome.copy()
        for i in disconnected.tolist():
            # The options are the spare gateways' window channels at the
            # cheapest tier that has any, in reach order.  Choosing from
            # range(total) draws exactly what choosing from that list of
            # (channel, tier) pairs would, without building it.
            for l, gws in enumerate(reach[i]):
                spans = [windows[j] for j in gws if spare[j]]
                total = sum(map(len, spans))
                if total:
                    k = rng.choice(range(total))
                    for chs in spans:
                        if k < len(chs):
                            break
                        k -= len(chs)
                    out[base + 2 * i] = chs[k]
                    out[base + 2 * i + 1] = l
                    break
        return out

    return repair


@dataclass
class PlanOutcome:
    """Result of one planning run."""

    solution: CPSolution
    cp_input: CPInput
    solve_time_s: float
    ga_result: GAResult


class IntraNetworkPlanner:
    """Plans and applies channel configurations for one network."""

    def __init__(
        self,
        network: Network,
        channels: Sequence[Channel],
        link: Optional[LinkBudget] = None,
        config: Optional[PlannerConfig] = None,
        traffic: Optional[Mapping[int, float]] = None,
    ) -> None:
        self.network = network
        self.channels = list(channels)
        self.link = link or LinkBudget()
        self.config = config or PlannerConfig()
        self.traffic = traffic

    def plan(self) -> PlanOutcome:
        """Solve the CP problem (timed, for the Figure 17 latency study)."""
        t0 = time.perf_counter()
        with phase_timed(Phase.PLAN, items=len(self.network.devices)):
            cp = build_cp_input(
                self.network,
                self.channels,
                self.link,
                traffic=self.traffic,
                tiers=self.config.tiers,
                snr_margin_db=self.config.snr_margin_db,
            )
            fixed = None
            if not self.config.optimize_nodes:
                fixed = self._current_node_assignment(cp)
            evaluator = CPEvaluator(
                cp,
                fixed_nodes=fixed,
                cell_overload_weight=self.config.cell_overload_weight,
                redundancy_weight=self.config.redundancy_weight,
                unserved_cost=self.config.unserved_cost,
            )

            seeds: List[List[int]] = []
            for windows in self._seed_windows(cp):
                seed_genome: List[int] = []
                for start, count in windows:
                    seed_genome.extend((start, count))
                if fixed is None:
                    node_ch, node_tier = _greedy_nodes(cp, windows)
                    for ch, tier in zip(node_ch, node_tier):
                        seed_genome.extend((ch, tier))
                seeds.append(seed_genome)

            bounds = evaluator.bounds()
            if not self.config.optimize_channel_count:
                # Pin every count gene at its maximum (8 channels on COTS HW).
                bounds = list(bounds)
                for j in range(len(cp.gateways)):
                    hi = bounds[2 * j + 1][1]
                    bounds[2 * j + 1] = (hi, hi)

            ga_result = evolve(
                bounds,
                evaluator.fitness,
                config=self.config.ga,
                seeds=seeds,
                repair=_make_repair(evaluator),
            )
            best_genome = ga_result.best_genome
            if fixed is None:
                # Refinement: the GA evolves windows and node genes jointly,
                # so the final windows may have drifted away from the node
                # assignment.  Re-run the greedy node construction against
                # the winning windows and keep the better of the two.
                starts, counts, _, _ = evaluator.split(best_genome)
                final_windows = [
                    (int(s), int(c)) for s, c in zip(starts, counts)
                ]
                node_ch, node_tier = _greedy_nodes(cp, final_windows)
                refined: List[int] = []
                for start, count in final_windows:
                    refined.extend((start, count))
                for ch, tier in zip(node_ch, node_tier):
                    refined.extend((ch, tier))
                if evaluator.fitness(refined) > ga_result.best_fitness:
                    best_genome = refined
            solution = evaluator.decode(best_genome)
        elapsed = time.perf_counter() - t0
        return PlanOutcome(
            solution=solution,
            cp_input=cp,
            solve_time_s=elapsed,
            ga_result=ga_result,
        )

    def _seed_windows(self, cp: CPInput) -> List[List[Tuple[int, int]]]:
        """Greedy gateway-window variants to seed the population."""
        variants = [_greedy_windows(cp, self.config.optimize_channel_count)]
        if self.config.optimize_channel_count:
            # Capacity-matched variant: window capacity (channels x DRs)
            # just above the decoder pool, regardless of coverage.
            num_ch = len(cp.channels)
            alt: List[Tuple[int, int]] = []
            for j, gw in enumerate(cp.gateways):
                max_count = min(gw.max_channels, gw.max_span_channels, num_ch)
                count = min(max_count, max(1, -(-gw.decoders // _NUM_DRS)))
                if num_ch > count:
                    start = (j * count) % (num_ch - count + 1)
                else:
                    start = 0
                alt.append((start, count))
            if alt != variants[0]:
                variants.append(alt)
        return variants

    def _current_node_assignment(
        self, cp: CPInput
    ) -> Tuple[List[int], List[int]]:
        """Freeze node genes at the devices' current configuration."""
        ch_index: Dict[float, int] = {
            c.center_hz: i for i, c in enumerate(self.channels)
        }
        dr_to_tier = {int(t.dr): l for l, t in enumerate(self.config.tiers)}
        node_ch: List[int] = []
        node_tier: List[int] = []
        for dev in self.network.devices:
            node_ch.append(ch_index.get(dev.channel.center_hz, 0))
            node_tier.append(dr_to_tier.get(int(dev.dr), 0))
        return node_ch, node_tier

    def apply(self, outcome: PlanOutcome) -> None:
        """Push the plan to gateways and end devices."""
        cp = outcome.cp_input
        for j, gw in enumerate(self.network.gateways):
            chans = outcome.solution.gateway_channels(cp, j)
            gw.configure(chans)
        if self.config.optimize_nodes:
            for i, dev in enumerate(self.network.devices):
                ch = cp.channels[outcome.solution.node_channels[i]]
                tier = cp.tiers[outcome.solution.node_tiers[i]]
                dev.apply_config(
                    channel=ch, dr=tier.dr, tx_power_dbm=tier.tx_power_dbm
                )

    def plan_and_apply(self) -> PlanOutcome:
        """Convenience: plan then apply."""
        outcome = self.plan()
        self.apply(outcome)
        return outcome
