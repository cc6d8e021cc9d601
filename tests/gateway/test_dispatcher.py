"""Tests for the FCFS decoder dispatcher."""

import pytest

from repro.gateway.decoder import DecoderLease, DecoderPool
from repro.gateway.detector import Detection
from repro.gateway.dispatcher import DispatchResult, FcfsDispatcher
from repro.phy.channels import ChannelGrid
from repro.phy.link import noise_floor_dbm
from repro.phy.lora import SpreadingFactor
from repro.types import Observation, Transmission

GRID = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
CHANNELS = GRID.channels()


def make_detection(node_id, start=0.0, network_id=1, sf=SpreadingFactor.SF8):
    tx = Transmission(
        node_id=node_id,
        network_id=network_id,
        channel=CHANNELS[node_id % len(CHANNELS)],
        sf=sf,
        start_s=start,
        payload_bytes=20,
    )
    return Detection(
        observation=Observation(
            transmission=tx, rssi_dbm=noise_floor_dbm(125_000) + 10
        ),
        rx_channel=tx.channel,
        lock_on_s=tx.lock_on_s,
        snr_db=10.0,
    )


class TestDispatch:
    def test_all_admitted_when_room(self):
        pool = DecoderPool(8)
        dets = [make_detection(i, start=i * 0.001) for i in range(5)]
        results = FcfsDispatcher(pool).dispatch(dets)
        assert all(r.admitted for r in results)

    def test_fcfs_order_by_lock_on(self):
        pool = DecoderPool(2)
        # Same SF => lock-on order equals start order.
        dets = [make_detection(i, start=i * 0.001) for i in range(4)]
        results = FcfsDispatcher(pool).dispatch(list(reversed(dets)))
        admitted_nodes = sorted(
            r.detection.tx.node_id for r in results if r.admitted
        )
        assert admitted_nodes == [0, 1]

    def test_rejection_captures_blockers(self):
        pool = DecoderPool(1)
        dets = [
            make_detection(1, start=0.0, network_id=5),
            make_detection(2, start=0.001, network_id=6),
        ]
        results = FcfsDispatcher(pool).dispatch(dets)
        rejected = [r for r in results if not r.admitted]
        assert len(rejected) == 1
        assert rejected[0].blockers[0].holder_network_id == 5

    def test_foreign_network_contends_equally(self):
        # Foreign packets occupy decoders exactly like own ones — the
        # core of the inter-network decoder contention problem.
        pool = DecoderPool(1)
        dets = [
            make_detection(1, start=0.0, network_id=2),  # foreign first
            make_detection(2, start=0.001, network_id=1),
        ]
        results = FcfsDispatcher(pool).dispatch(dets)
        by_node = {r.detection.tx.node_id: r for r in results}
        assert by_node[1].admitted
        assert not by_node[2].admitted

    def test_decoder_recycling(self):
        # A short packet releases its decoder in time for a later one.
        pool = DecoderPool(1)
        early = make_detection(1, start=0.0, sf=SpreadingFactor.SF7)
        late_start = early.tx.end_s + 0.01
        late = make_detection(2, start=late_start, sf=SpreadingFactor.SF7)
        results = FcfsDispatcher(pool).dispatch([early, late])
        assert all(r.admitted for r in results)

    def test_deterministic_tie_break(self):
        pool = DecoderPool(1)
        a = make_detection(3, start=0.0)
        b = make_detection(7, start=0.0)
        res1 = FcfsDispatcher(DecoderPool(1)).dispatch([a, b])
        res2 = FcfsDispatcher(DecoderPool(1)).dispatch([b, a])
        assert [r.detection.tx.node_id for r in res1 if r.admitted] == (
            [r.detection.tx.node_id for r in res2 if r.admitted]
        )


class TestRecords:
    """The records are named tuples with the old dataclasses' surface."""

    def test_fields_and_defaults(self):
        assert Detection._fields == (
            "observation", "rx_channel", "lock_on_s", "snr_db",
        )
        assert Detection._field_defaults == {}
        assert DecoderLease._fields == (
            "decoder_index", "start_s", "release_s", "holder_network_id",
            "holder_node_id",
        )
        assert DecoderLease._field_defaults == {}
        assert DispatchResult._fields == ("detection", "lease", "blockers")
        assert DispatchResult._field_defaults == {"blockers": ()}

    def test_detection_tx_is_the_observed_transmission(self):
        det = make_detection(3)
        assert det.tx is det.observation.transmission

    def test_admitted_follows_the_lease(self):
        det = make_detection(1)
        lease = DecoderLease(0, det.lock_on_s, det.tx.end_s, 1, 1)
        assert DispatchResult(det, lease).admitted
        assert not DispatchResult(det, None).admitted
        assert not DispatchResult(det, None, (lease,)).admitted

    def test_one_detection_per_call_matches_the_sorted_batch(self):
        # Two decoders, six detections with a lock-on tie: the batch
        # sorts them; offering them one per call in that order must grant
        # and reject the same, with the same blockers.
        dets = [
            make_detection(node, start=start, network_id=net)
            for node, start, net in (
                (4, 0.002, 2), (1, 0.0, 1), (2, 0.001, 2),
                (3, 0.001, 1), (5, 0.003, 1), (6, 0.004, 2),
            )
        ]
        batch = FcfsDispatcher(DecoderPool(2)).dispatch(dets)
        single = FcfsDispatcher(DecoderPool(2))
        one_by_one = [single.dispatch((r.detection,))[0] for r in batch]
        assert one_by_one == batch
        assert [r.detection.tx.node_id for r in batch] == [1, 3, 2, 4, 5, 6]
        assert [r.admitted for r in batch].count(False) > 0
        assert all(r.blockers for r in batch if not r.admitted)
