"""The cyclic garbage collector is paused for the length of a run.

``Simulator._run`` turns the collector off for its whole body and back
on afterwards only if it was on at entry.  That is safe only because a
run builds no reference cycles: these tests pin that premise, batch and
online under faults, plain and observed, and the collector state the
run leaves behind.
"""

import gc
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines.standard import apply_standard_lorawan
from repro.experiments.common import emulated_traffic, lab_link
from repro.faults import BackhaulFault, DecoderDegradation, FaultPlan, GatewayCrash
from repro.gateway.gateway import Outcome
from repro.obs import observe
from repro.phy.regions import TESTBED_16
from repro.sim.engine import OnlineSimulator
from repro.sim.metrics import outcome_counts
from repro.sim.scenario import assign_tier_by_reach, build_network

SRC = Path(__file__).resolve().parents[2] / "src"
WINDOW_S = 3.0


@pytest.fixture(scope="module")
def coexisting():
    """Two operator networks on one 1.6 MHz block, a fault plan that
    crashes a gateway, drops and delays backhaul and shrinks a decoder
    pool, and a few hundred packets of traffic."""
    grid = TESTBED_16.grid()
    networks, txs = [], []
    for k in range(2):
        net = build_network(
            network_id=k + 1,
            num_gateways=3,
            num_nodes=40,
            channels=grid.channels()[:8],
            seed=5 + 17 * k,
            gateway_id_base=100 * k,
            node_id_base=10_000 * k,
            width_m=800.0,
            height_m=600.0,
        )
        apply_standard_lorawan(net, grid, seed=5 + 17 * k)
        assign_tier_by_reach(net, spread_seed=5 + 17 * k)
        networks.append(net)
        txs.extend(
            emulated_traffic(
                net.devices,
                total_users=2_000,
                mean_interval_s=35.0,
                window_s=WINDOW_S,
                seed=9 + 31 * k,
            )
        )
    plan = FaultPlan(
        seed=3,
        gateway_crashes=(GatewayCrash(time_s=1.0, gateway_id=0, down_s=0.8),),
        backhaul_faults=(
            BackhaulFault(
                gateway_id=101,
                drop_prob=0.4,
                delay_mean_s=0.05,
                delay_jitter_s=0.02,
            ),
        ),
        decoder_degradations=(
            DecoderDegradation(time_s=0.5, gateway_id=1, decoders=2, duration_s=1.5),
        ),
    )
    gateways = [gw for net in networks for gw in net.gateways]
    devices = [dev for net in networks for dev in net.devices]
    sim = OnlineSimulator(gateways, devices, link=lab_link(seed=5))
    return sim, txs, plan


def _batch(sim, txs, plan):
    return sim.run(txs)


def _online(sim, txs, plan):
    return sim.run_online(txs, fault_plan=plan)


def _garbage_after(run):
    """(cyclic garbage the run leaves, the run's result), collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = run()
        return gc.collect(), result
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("run", [_batch, _online], ids=["batch", "online"])
def test_a_run_leaves_no_cyclic_garbage(coexisting, run, observed):
    sim, txs, plan = coexisting
    if observed:
        with observe(trace=True, metrics=True, health=True) as session:
            garbage, result = _garbage_after(lambda: run(sim, txs, plan))
        assert len(session.recorder) > 0
    else:
        garbage, result = _garbage_after(lambda: run(sim, txs, plan))
    assert garbage == 0
    counts = outcome_counts(result)
    assert counts[Outcome.RECEIVED.value] > 0
    if run is _online:
        # The plan's faults all show, so their code paths ran.
        assert counts[Outcome.GATEWAY_OFFLINE.value] > 0
        assert counts[Outcome.BACKHAUL_LOST.value] > 0
        assert counts[Outcome.NO_DECODER.value] > 0


@pytest.fixture
def eager_collector():
    """The collector on, with a young-generation threshold low enough
    that a few allocations start a collection; counts collection starts."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    threshold = gc.get_threshold()
    gc.enable()
    gc.set_threshold(10, 10, 10)
    gc.callbacks.append(count)
    try:
        yield starts
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
        if not was_enabled:
            gc.disable()


@pytest.mark.parametrize("run", [_batch, _online], ids=["batch", "online"])
def test_no_collection_starts_during_a_run(
    coexisting, eager_collector, monkeypatch, run
):
    """Counted while ``_run``, the body every run shares, executes
    (``run_online`` builds its timelines before it)."""
    sim, txs, plan = coexisting
    body = sim._run
    inside = []

    def counted(*args, **kwargs):
        del eager_collector[:]
        try:
            return body(*args, **kwargs)
        finally:
            inside.extend(eager_collector)

    monkeypatch.setattr(sim, "_run", counted)
    kept = [[] for _ in range(100)]
    assert eager_collector, "the probe counts collections outside a run"
    run(sim, txs, plan)
    assert inside == []
    assert gc.isenabled()
    del kept


def test_a_run_that_raises_turns_the_collector_back_on(coexisting):
    sim, txs, plan = coexisting
    assert gc.isenabled()
    with pytest.raises(KeyError):  # the medium knows no such device
        sim.run([replace(txs[0], node_id=-1)])
    assert gc.isenabled()


def test_a_collector_off_before_the_run_stays_off(coexisting):
    sim, txs, plan = coexisting
    gc.disable()
    try:
        sim.run_online(txs, fault_plan=plan)
        assert not gc.isenabled()
        with pytest.raises(KeyError):
            sim.run([replace(txs[0], node_id=-1)])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_only_the_run_body_touches_the_collector():
    pattern = re.compile(r"gc\.(disable|enable|freeze|set_threshold)\b")
    hits = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )
    assert hits == ["repro/sim/simulator.py"]
