"""Tests for the trace query language and the packet explain engine."""

import pytest

from repro.obs.query import (
    ExplainError,
    QueryError,
    explain_packet,
    parse_packet_id,
    parse_query,
    query_events,
    render_explain,
)


def _ev(seq, etype, t=None, **fields):
    d = {"seq": seq, "type": etype}
    if t is not None:
        d["t"] = t
    d.update(fields)
    return d


class TestParseQuery:
    def test_clauses_and_coercion(self):
        clauses = parse_query("type=gw.reception t>=10 gw!=2")
        assert clauses == [
            ("type", "=", "gw.reception"),
            ("t", ">=", 10),
            ("gw", "!=", 2),
        ]

    def test_longest_op_wins(self):
        assert parse_query("t<=5") == [("t", "<=", 5)]

    def test_bad_clause_raises(self):
        with pytest.raises(QueryError, match="bad clause"):
            parse_query("no-operator-here")

    def test_empty_query_raises(self):
        with pytest.raises(QueryError, match="empty"):
            parse_query("   ")


class TestQueryEvents:
    EVENTS = [
        {"seq": 0, "type": "manifest", "schema": 2},
        _ev(1, "gw.reception", 1.0, gw=0, outcome="received"),
        _ev(2, "gw.reception", 5.0, gw=1, outcome="gateway_offline"),
        _ev(3, "master.crash", req="renew"),
    ]

    def test_manifest_excluded(self):
        assert all(
            e["type"] != "manifest" for e in query_events(self.EVENTS, "seq>=0")
        )

    def test_conjunction(self):
        hits = query_events(self.EVENTS, "type=gw.reception t>2")
        assert [e["seq"] for e in hits] == [2]

    def test_missing_field_fails_except_not_equal(self):
        assert query_events(self.EVENTS, "outcome=received") == [self.EVENTS[1]]
        hits = query_events(self.EVENTS, "outcome!=received")
        assert [e["seq"] for e in hits] == [2, 3]

    def test_ordering_on_strings_never_matches(self):
        assert query_events(self.EVENTS, "type>gw") == []

    def test_by_type_and_identity(self):
        trace = [
            {"type": "manifest", "experiment": "x"},
            {"type": "sim.run_start", "run": 1},
            {"type": "gw.reception", "t": 0.0, "gw": 0, "net": 1, "node": 1,
             "ctr": 0, "att": 0, "outcome": "no_decoder"},
            {"type": "sim.run_end", "run": 1},
            {"type": "sim.run_start", "run": 2},
            {"type": "gw.lock_on", "t": 0.1, "gw": 0, "net": 1, "node": 1,
             "ctr": 0, "att": 0},
            {"type": "gw.reception", "t": 0.0, "gw": 0, "net": 1, "node": 1,
             "ctr": 0, "att": 0, "outcome": "received"},
            {"type": "gw.reception", "t": 2.0, "gw": 0, "net": 1, "node": 2,
             "ctr": 0, "att": 1, "outcome": "decode_failed"},
            {"type": "sim.run_end", "run": 2},
        ]
        assert len(query_events(trace, "type=gw.reception")) == 3
        assert len(query_events(trace, "node=2")) == 1
        assert len(query_events(trace, "type=gw.reception node=1")) == 2
        assert query_events(trace, "gw=9") == []


class TestParsePacketId:
    def test_three_and_four_part_forms(self):
        assert parse_packet_id("1:9:2") == (1, 9, 2, None)
        assert parse_packet_id("1:9:2:3") == (1, 9, 2, 3)

    def test_bad_shapes_raise(self):
        with pytest.raises(ExplainError):
            parse_packet_id("1:9")
        with pytest.raises(ExplainError):
            parse_packet_id("1:9:x")


def _packet_trace(outcomes, extra=()):
    """One packet (net=1 node=9 ctr=1) heard by len(outcomes) gateways."""
    events = []
    seq = 1
    for gw, outcome in enumerate(outcomes):
        events.append(
            _ev(seq, "gw.reception", 10.0, net=1, node=9, ctr=1, att=0,
                gw=gw, outcome=outcome)
        )
        seq += 1
    for ev in extra:
        ev = dict(ev)
        ev["seq"] = seq
        seq += 1
        events.append(ev)
    return events


class TestExplain:
    def test_delivered_decided_by_uplink(self):
        events = _packet_trace(
            ["received", "channel_mismatch"],
            extra=[
                {"type": "netserver.uplink", "t": 10.0, "net": 1, "node": 9,
                 "ctr": 1, "att": 0}
            ],
        )
        report = explain_packet(events, "1:9:1")
        assert report["outcome"] == "delivered"
        assert report["deciding"]["type"] == "netserver.uplink"
        assert report["deciding_index"] is not None

    def test_backhaul_lost_decided_by_drop(self):
        events = _packet_trace(
            ["received"],
            extra=[
                {"type": "backhaul.drop", "t": 10.0, "net": 1, "node": 9,
                 "ctr": 1, "att": 0, "gw": 0}
            ],
        )
        report = explain_packet(events, "1:9:1")
        assert report["outcome"] == "backhaul_lost"
        assert report["deciding"]["type"] == "backhaul.drop"

    def test_gateway_offline_decided_by_reboot(self):
        reboot = {"seq": 90, "type": "gw.reboot", "t": 8.0, "gw": 0,
                  "reason": "crash"}
        events = _packet_trace(["gateway_offline", "channel_mismatch"])
        events.append(reboot)
        report = explain_packet(events, "1:9:1")
        assert report["outcome"] == "gateway_offline"
        assert report["deciding"] is reboot
        # The reboot is control-plane, not lifecycle: shown via context.
        assert report["deciding_index"] is None
        assert reboot in report["context"]
        rendered = render_explain(report)
        assert ">>>" in rendered
        assert "deciding event: gw.reboot" in rendered

    def test_v2_lam_stamp_renders_as_an_ordinary_field(self):
        # Traces before schema v3 end every event with a "lam" stamp.
        events = [
            dict(ev, lam=ev["seq"]) for ev in _packet_trace(["received"])
        ]
        rendered = render_explain(explain_packet(events, "1:9:1"))
        assert "outcome=received lam=1" in rendered

    def test_outcome_precedence_received_beats_offline(self):
        # The server ingested another packet but not this one, and no
        # backhaul.drop is recorded: a decoded packet that never reached
        # the server is attributed to the backhaul.
        events = _packet_trace(
            ["gateway_offline", "received"],
            extra=[
                {"type": "netserver.uplink", "t": 10.0, "net": 1, "node": 4,
                 "ctr": 1, "att": 0}
            ],
        )
        report = explain_packet(events, "1:9:1")
        assert report["outcome"] == "backhaul_lost"

    def test_received_without_a_network_server_is_delivered(self):
        # No netserver.uplink anywhere in the round: a bare gateway run,
        # where the gateway's reception is the delivery.
        events = _packet_trace(["received", "channel_mismatch"])
        report = explain_packet(events, "1:9:1")
        assert report["outcome"] == "delivered"
        assert report["deciding"] is events[0]
        assert report["deciding_index"] == 0
        # The last received reception decides.
        events = _packet_trace(["received", "channel_mismatch", "received"])
        assert explain_packet(events, "1:9:1")["deciding"] is events[2]

    def test_final_attempt_wins(self):
        events = [
            _ev(1, "gw.reception", 5.0, net=1, node=9, ctr=1, att=0,
                gw=0, outcome="channel_mismatch"),
            _ev(2, "gw.reception", 9.0, net=1, node=9, ctr=1, att=1,
                gw=0, outcome="received"),
            _ev(3, "netserver.uplink", 9.0, net=1, node=9, ctr=1, att=1),
        ]
        report = explain_packet(events, "1:9:1")
        assert report["final_att"] == 1
        assert report["outcome"] == "delivered"

    def test_unknown_packet_raises(self):
        with pytest.raises(ExplainError, match="no events"):
            explain_packet(_packet_trace(["received"]), "2:2:2")


def _run(seq, events):
    """One simulated run: ``sim.run_start``, ``events``, ``sim.run_end``."""
    out = [_ev(seq, "sim.run_start")]
    for ev in events:
        seq += 1
        out.append(dict(ev, seq=seq))
    out.append(_ev(seq + 1, "sim.run_end"))
    return out


def _reception(gw, outcome, node=9):
    return {"type": "gw.reception", "t": 10.0, "net": 1, "node": node,
            "ctr": 1, "att": 0, "gw": gw, "outcome": outcome}


def _reboot():
    return {"type": "gw.reboot", "t": 8.0, "gw": 0, "reason": "crash"}


class TestExplainOneRound:
    def test_retransmission_rounds_explain_from_the_last(self):
        # Each round re-simulates the whole window: the packet's
        # receptions and the crash repeat, and the last round decides.
        first = _run(1, [_reboot(), _reception(0, "received"),
                         _reception(1, "channel_mismatch")])
        last = _run(10, [_reboot(), _reception(0, "gateway_offline"),
                         _reception(1, "channel_mismatch")])
        report = explain_packet(first + last, "1:9:1:0")
        assert [e["seq"] for e in report["events"]] == [12, 13]
        assert report["outcome"] == "gateway_offline"
        assert report["deciding"]["seq"] == 11
        assert [e["seq"] for e in report["context"]] == [11]

    def test_a_packet_only_in_the_first_run_is_explained_from_it(self):
        uplink = {"seq": 5, "type": "netserver.uplink", "t": 10.0, "net": 1,
                  "node": 9, "ctr": 1, "att": 0}
        first = _run(1, [_reception(0, "received"),
                         _reception(1, "no_decoder")])
        second = _run(6, [_reboot(), _reception(0, "gateway_offline", node=4)])
        report = explain_packet(first + [uplink] + second, "1:9:1:0")
        assert report["outcome"] == "delivered"
        assert report["deciding"] is uplink
        assert [e["seq"] for e in report["events"]] == [2, 3, 5]
        assert report["context"] == []
