"""Compile resolved scenario configs into executable, seeded runs.

The compiler is the bridge between the declarative spec layer
(:mod:`repro.scenarios.spec`) and the simulation builders
(:mod:`repro.sim.scenario`): it materializes the channel grid, the
operator networks and their channel/DR assignments, then executes one
of three run kinds:

* ``capacity`` — the concurrent-burst capacity probe behind every
  "maximum concurrent users" figure,
* ``load`` — Poisson traffic from an emulated user population, with a
  per-cause loss breakdown (the Figure 4 protocol),
* ``chaos`` — the fault-injection resilience scenario of
  :mod:`repro.experiments.chaos`.

Seeding contract (the reason spec-compiled runs reproduce the
hand-written scripts byte-for-byte): run ``i`` runs with
``seed + run.seed_stride * i``, network ``k`` builds with
``run_seed + networks.seed_stride * k`` (unless its list entry pins
``seed_offset``), per-network traffic draws from
``run_seed + traffic.seed_stride * k``, and a ``lab`` link's shadowing
uses the scenario's *base* seed — propagation belongs to the
deployment, not to the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..obs.perf import Phase, phase_timed
from ..phy.channels import Channel, ChannelGrid
from ..sim.metrics import breakdown_ratios
from ..sim.scenario import (
    Network,
    assign_orthogonal_combos,
    assign_tier_by_reach,
    build_network,
)
from ..sim.simulator import SimulationResult, Simulator
from ..sim.topology import LinkBudget
from .spec import BANDS, RunConfig, ScenarioSpec, SpecError, area_preset

__all__ = ["CompiledRun", "compile_run", "execute_run"]


def _grid_and_channels(
    config: Mapping[str, Any],
) -> Tuple[ChannelGrid, List[Channel]]:
    region = config["region"]
    grid = BANDS[region["band"]].grid()
    channels = grid.channels()
    limit = region["channels"]
    if limit is not None:
        if not 1 <= int(limit) <= len(channels):
            raise SpecError(
                f"region.channels: {limit} outside 1..{len(channels)} "
                f"for band {region['band']}"
            )
        channels = channels[: int(limit)]
    return grid, channels


def _area(config: Mapping[str, Any]) -> Tuple[float, float]:
    area = config["area"]
    if area["preset"] == "custom":
        return float(area["width_m"]), float(area["height_m"])
    return area_preset(area["preset"])


def _pick(entry: Mapping[str, Any], key: str, default: Any) -> int:
    value = entry.get(key)
    return int(value if value is not None else default)


def _network_entries(config: Mapping[str, Any]) -> List[Dict[str, int]]:
    """One resolved build recipe per network."""
    networks = config["networks"]
    overrides = networks.get("list") or []
    entries: List[Dict[str, int]] = []
    for k in range(int(networks["count"])):
        entry = overrides[k] if k < len(overrides) else {}
        entries.append(
            {
                "gateways": _pick(entry, "gateways", networks["gateways"]),
                "devices": _pick(entry, "devices", networks["devices"]),
                "seed_offset": _pick(
                    entry, "seed_offset", k * int(networks["seed_stride"])
                ),
                "gateway_id_base": _pick(
                    entry, "gateway_id_base", k * int(networks["gateway_id_stride"])
                ),
                "node_id_base": _pick(
                    entry, "node_id_base", k * int(networks["node_id_stride"])
                ),
            }
        )
    return entries


def _link_budget(config: Mapping[str, Any]) -> LinkBudget:
    if config["link"]["kind"] == "lab":
        from ..experiments.common import lab_link

        return lab_link(seed=int(config["seed"]))
    return LinkBudget()


def _channel_slice(
    channels: Sequence[Channel], k: int, count: int, mode: str
) -> List[Channel]:
    if mode == "contiguous":
        n = len(channels)
        return list(channels[k * n // count : (k + 1) * n // count])
    return list(channels)


@dataclass
class _BuiltScenario:
    networks: List[Network]
    build_seeds: List[int]
    grid: ChannelGrid
    channels: List[Channel]
    link: LinkBudget


def _build(config: Mapping[str, Any], run_seed: int) -> _BuiltScenario:
    grid, channels = _grid_and_channels(config)
    width_m, height_m = _area(config)
    networks: List[Network] = []
    build_seeds: List[int] = []
    for k, entry in enumerate(_network_entries(config)):
        build_seed = run_seed + entry["seed_offset"]
        networks.append(
            build_network(
                network_id=k + 1,
                num_gateways=entry["gateways"],
                num_nodes=entry["devices"],
                channels=channels,
                seed=build_seed,
                gateway_id_base=entry["gateway_id_base"],
                node_id_base=entry["node_id_base"],
                width_m=width_m,
                height_m=height_m,
            )
        )
        build_seeds.append(build_seed)
    return _BuiltScenario(
        networks=networks,
        build_seeds=build_seeds,
        grid=grid,
        channels=channels,
        link=_link_budget(config),
    )


def _assign(config: Mapping[str, Any], built: _BuiltScenario) -> None:
    assignment = config["assignment"]
    count = len(built.networks)
    for k, net in enumerate(built.networks):
        chans = _channel_slice(
            built.channels, k, count, assignment["split_channels"]
        )
        if not chans:
            raise SpecError(
                "assignment.split_channels: more networks than channels "
                f"({count} networks over {len(built.channels)} channels)"
            )
        seed = built.build_seeds[k]
        if assignment["kind"] == "orthogonal":
            assign_orthogonal_combos(net.devices, chans)
        else:
            from ..baselines.standard import apply_standard_lorawan

            apply_standard_lorawan(net, built.grid, seed=seed)
        tier = assignment["tier"]
        if tier["enabled"]:
            assign_tier_by_reach(
                net,
                k_nearest=int(tier["k_nearest"]),
                spread_seed=seed if tier["spread"] else None,
            )


def _build_and_assign(config: Mapping[str, Any], run_seed: int) -> _BuiltScenario:
    with phase_timed(Phase.BUILD) as pt:
        built = _build(config, run_seed)
        pt.items = sum(len(n.devices) for n in built.networks)
    with phase_timed(Phase.ASSIGN) as pt:
        _assign(config, built)
        pt.items = sum(len(n.devices) for n in built.networks)
    return built


# -- executors --------------------------------------------------------------


def _network_rows(
    networks: Sequence[Network], result: SimulationResult
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for net in networks:
        offered = len(net.devices)
        delivered = result.delivered_count(net.network_id)
        rows.append(
            {
                "network_id": net.network_id,
                "offered": offered,
                "delivered": delivered,
                "dropped": offered - delivered,
            }
        )
    return rows


def _execute_capacity(
    config: Mapping[str, Any], run_seed: int
) -> Dict[str, Any]:
    from ..experiments.common import measure_capacity, stagger_duplicate_powers

    built = _build_and_assign(config, run_seed)
    traffic = config["traffic"]
    if traffic["stagger_powers"]:
        for net in built.networks:
            stagger_duplicate_powers(net.devices)
    gateways = [gw for net in built.networks for gw in net.gateways]
    devices = [dev for net in built.networks for dev in net.devices]
    result = measure_capacity(
        gateways,
        devices,
        link=built.link,
        shuffle_seed=run_seed if traffic["shuffle"] else None,
    )
    with phase_timed(Phase.AGGREGATE, items=len(devices)):
        out: Dict[str, Any] = {
            "kind": "capacity",
            "offered": len(devices),
            "delivered": result.delivered_count(),
            "prr": result.prr(),
            "networks": _network_rows(built.networks, result),
        }
        if config["metrics"]["breakdown"]:
            out["breakdown"] = breakdown_ratios(result)
    return out


def _load_traffic(
    config: Mapping[str, Any], built: _BuiltScenario, run_seed: int
) -> List[Any]:
    from ..experiments.common import emulated_traffic

    traffic = config["traffic"]
    txs: List[Any] = []
    for k, net in enumerate(built.networks):
        txs.extend(
            emulated_traffic(
                net.devices,
                total_users=int(traffic["users"]),
                mean_interval_s=float(traffic["mean_interval_s"]),
                window_s=float(traffic["window_s"]),
                seed=run_seed + int(traffic["seed_stride"]) * k,
            )
        )
    txs.sort(key=lambda tx: tx.start_s)
    return txs


def _execute_load(config: Mapping[str, Any], run_seed: int) -> Dict[str, Any]:
    built = _build_and_assign(config, run_seed)
    with phase_timed(Phase.TRAFFIC) as pt:
        txs = _load_traffic(config, built, run_seed)
        pt.items = len(txs)
    gateways = [gw for net in built.networks for gw in net.gateways]
    devices = [dev for net in built.networks for dev in net.devices]
    result = Simulator(gateways, devices, link=built.link).run(txs)
    with phase_timed(Phase.AGGREGATE, items=len(txs)):
        out: Dict[str, Any] = {
            "kind": "load",
            "offered": len(txs),
            "delivered": result.delivered_count(),
            "prr": result.prr(),
            "networks": _network_rows(built.networks, result),
        }
        if config["metrics"]["breakdown"]:
            out["breakdown"] = breakdown_ratios(result)
            for row, net in zip(out["networks"], built.networks):
                row["breakdown"] = breakdown_ratios(result, net.network_id)
    return out


def _execute_chaos(config: Mapping[str, Any], run_seed: int) -> Dict[str, Any]:
    # Imported lazily: the chaos driver pulls in the whole control
    # plane, which scenario parsing must not depend on.
    from ..experiments.chaos import run_chaos

    networks = config["networks"]
    width_m, height_m = _area(config)
    result = run_chaos(
        seed=run_seed,
        fast=bool(config["run"]["fast"]),
        num_gateways=int(networks["gateways"]),
        num_nodes=int(networks["devices"]),
        width_m=width_m,
        height_m=height_m,
    )
    out = dict(result)
    out["kind"] = "chaos"
    return out


_EXECUTORS = {
    "capacity": _execute_capacity,
    "load": _execute_load,
    "chaos": _execute_chaos,
}


@dataclass(frozen=True)
class CompiledRun:
    """One executable run: a resolved config plus its identity."""

    run_id: str
    index: int
    seed: int
    config: Dict[str, Any]

    def execute(self) -> Dict[str, Any]:
        """Run the scenario; returns the deterministic result dict."""
        executor = _EXECUTORS[self.config["run"]["kind"]]
        return executor(self.config, self.seed)


def compile_run(run: RunConfig) -> CompiledRun:
    """Compile one expanded run config into an executable run."""
    kind = run.config["run"]["kind"]
    if kind not in _EXECUTORS:
        raise SpecError(f"run.kind: unknown kind {kind!r}")
    return CompiledRun(
        run_id=run.run_id, index=run.index, seed=run.seed, config=run.config
    )


def execute_run(run: RunConfig) -> Dict[str, Any]:
    """Compile and execute in one step (the campaign worker entry)."""
    return compile_run(run).execute()


def compile_spec(spec: ScenarioSpec) -> List[CompiledRun]:
    """Compile every run of a spec's expanded sweep grid."""
    return [compile_run(run) for run in spec.runs()]
