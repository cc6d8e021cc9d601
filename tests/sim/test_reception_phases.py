"""The reception phases count what the benchmark says they count.

``phase.gw.*.items`` and ``phase.sim.timeline.items`` are read from a
PerfProbe as work counts, whatever the calls behind them.  Each is tied
here to the records and the trace of one batch and one online run:

* ``gw.detect``: every packet that meets a live radio, so every record
  except those dark at lock-on (GATEWAY_OFFLINE without a lock-on);
* ``gw.dispatch``: every detection, the records with a lock-on;
* ``gw.decode``: every admission, those minus NO_DECODER;
* ``sim.timeline``: every applied event, one reboot or pool resize each.
"""

import pytest

from repro.experiments.common import emulated_traffic
from repro.faults import DecoderDegradation, FaultPlan, GatewayCrash
from repro.gateway.gateway import Outcome
from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.perf import PerfProbe, Phase
from repro.sim.engine import OnlineSimulator, Reconfiguration
from repro.sim.scenario import build_network
from repro.sim.simulator import Simulator

WINDOW_S = 20.0


@pytest.fixture
def net(grid_48):
    """Three gateways on two channel sets; a third of the devices on
    channels no gateway listens to."""
    chans = grid_48.channels()
    network = build_network(
        1, 3, 45, chans[:8], seed=5, width_m=1500.0, height_m=1500.0
    )
    network.gateways[1].configure(chans[4:12])
    for i, dev in enumerate(network.devices):
        dev.apply_config(channel=chans[i % 16])
    return network


def _traffic(net):
    return emulated_traffic(
        net.devices, total_users=600, mean_interval_s=5.0, window_s=WINDOW_S,
        seed=2,
    )


def _probed(run):
    probe = PerfProbe()
    with observe(metrics=False) as session, probe.attach():
        result = run()
    phases = probe.report()["deterministic"]["phases"]
    items = {phase: phases.get(phase, {}).get("items", 0) for phase in (
        Phase.DETECT, Phase.DISPATCH, Phase.DECODE, Phase.TIMELINE
    )}
    records = [r for recs in result.receptions.values() for r in recs]
    applied = sum(
        ev["type"] in (EventType.GW_REBOOT, EventType.POOL_RESIZE)
        for ev in session.recorder.to_dicts()
    )
    return items, records, applied


def _expected(records, applied):
    seen = [r for r in records if r.lock_on_s is not None]
    return {
        Phase.DETECT: sum(
            not (r.outcome is Outcome.GATEWAY_OFFLINE and r.lock_on_s is None)
            for r in records
        ),
        Phase.DISPATCH: len(seen),
        Phase.DECODE: sum(r.outcome is not Outcome.NO_DECODER for r in seen),
        Phase.TIMELINE: applied,
    }


def test_batch_run_phase_items_count_the_records(net, link):
    sim = Simulator(net.gateways, net.devices, link=link)
    items, records, applied = _probed(lambda: sim.run(_traffic(net)))
    outcomes = {r.outcome for r in records}
    assert {Outcome.CHANNEL_MISMATCH, Outcome.RECEIVED} <= outcomes
    assert applied == 0
    assert items == _expected(records, applied)


def test_online_run_phase_items_count_the_records(net, link, grid_48):
    crashed, degraded, switched = (gw.gateway_id for gw in net.gateways)
    plan = FaultPlan(
        gateway_crashes=(
            GatewayCrash(time_s=4.0, gateway_id=crashed, down_s=3.0),
            GatewayCrash(time_s=6.0, gateway_id=crashed, down_s=3.0),
        ),
        decoder_degradations=(
            DecoderDegradation(
                time_s=2.0, gateway_id=degraded, decoders=1, duration_s=8.0
            ),
        ),
    )
    reconfig = Reconfiguration(
        time_s=10.0,
        gateway_id=switched,
        channels=tuple(grid_48.channels()[8:16]),
        outage_s=1.0,
    )
    sim = OnlineSimulator(net.gateways, net.devices, link=link)
    items, records, applied = _probed(
        lambda: sim.run_online(_traffic(net), [reconfig], fault_plan=plan)
    )
    offline = [r for r in records if r.outcome is Outcome.GATEWAY_OFFLINE]
    assert any(r.lock_on_s is None for r in offline)  # dark at lock-on
    outcomes = {r.outcome for r in records}
    assert {Outcome.CHANNEL_MISMATCH, Outcome.NO_DECODER} <= outcomes
    assert applied == 5  # two crashes, a resize down and up, a switch
    assert items == _expected(records, applied)
