"""Tests for trace analysis: segments, timelines, occupancy, summaries."""

import pytest

from repro.obs.events import EventType
from repro.obs.timeline import (
    decoder_occupancy,
    final_run_events,
    packet_timelines,
    render_occupancy,
    run_segments,
    summarize_trace,
    trace_outcome_counts,
)


def _ev(etype, **fields):
    return {"type": etype, **fields}


def _two_run_trace():
    """Two sim runs; the second (authoritative) has different outcomes."""
    return [
        _ev(EventType.MANIFEST, experiment="x"),
        _ev(EventType.SIM_RUN_START, run=1),
        _ev(EventType.GW_RECEPTION, t=0.0, gw=0, net=1, node=1, ctr=0, att=0,
            outcome="no_decoder"),
        _ev(EventType.SIM_RUN_END, run=1),
        _ev(EventType.MASTER_RETRY, req="register", attempt=1),
        _ev(EventType.SIM_RUN_START, run=2),
        _ev(EventType.GW_LOCK_ON, t=0.1, gw=0, net=1, node=1, ctr=0, att=0),
        _ev(EventType.DECODER_GRANT, t=0.1, gw=0, dec=0, until=1.1, net=1,
            node=1, ctr=0, att=0),
        _ev(EventType.GW_RECEPTION, t=0.0, gw=0, net=1, node=1, ctr=0, att=0,
            outcome="received"),
        _ev(EventType.GW_RECEPTION, t=2.0, gw=0, net=1, node=2, ctr=0, att=1,
            outcome="decode_failed"),
        _ev(EventType.SIM_RUN_END, run=2),
    ]


class TestSegments:
    def test_run_segments(self):
        segments = run_segments(_two_run_trace())
        assert len(segments) == 2
        assert segments[0][0]["run"] == 1
        assert segments[1][-1]["type"] == EventType.SIM_RUN_END

    def test_events_outside_runs_excluded(self):
        segments = run_segments(_two_run_trace())
        types = {e["type"] for seg in segments for e in seg}
        assert EventType.MASTER_RETRY not in types
        assert EventType.MANIFEST not in types

    def test_final_run_is_last(self):
        final = final_run_events(_two_run_trace())
        assert final[0]["run"] == 2

    def test_incomplete_segment_ignored(self):
        trace = [_ev(EventType.SIM_RUN_START, run=1), _ev(EventType.GW_LOCK_ON, t=0.0)]
        assert run_segments(trace) == []
        assert final_run_events(trace) == []


class TestOutcomeCounts:
    def test_final_only_matches_last_run(self):
        counts = trace_outcome_counts(_two_run_trace())
        assert counts == {"decode_failed": 1, "received": 1}

    def test_all_runs(self):
        counts = trace_outcome_counts(_two_run_trace(), final_only=False)
        assert counts == {"decode_failed": 1, "no_decoder": 1, "received": 1}


class TestPacketTimelines:
    def test_grouped_by_packet_identity(self):
        timelines = packet_timelines(_two_run_trace())
        assert set(timelines) == {(1, 1, 0, 0), (1, 2, 0, 1)}
        types = [e["type"] for e in timelines[(1, 1, 0, 0)]]
        assert types == [
            EventType.GW_LOCK_ON,
            EventType.DECODER_GRANT,
            EventType.GW_RECEPTION,
        ]


class TestDecoderOccupancy:
    def test_counts_active_leases_per_bucket(self):
        trace = [
            _ev(EventType.SIM_RUN_START, run=1),
            _ev(EventType.DECODER_GRANT, t=0.2, gw=0, dec=0, until=2.5,
                net=1, node=1, ctr=0, att=0),
            _ev(EventType.DECODER_GRANT, t=1.1, gw=0, dec=1, until=1.9,
                net=1, node=2, ctr=0, att=0),
            _ev(EventType.DECODER_GRANT, t=0.5, gw=7, dec=0, until=0.9,
                net=1, node=3, ctr=0, att=0),
            _ev(EventType.SIM_RUN_END, run=1),
        ]
        xs, series = decoder_occupancy(trace, bucket_s=1.0)
        assert xs == [0.0, 1.0, 2.0]
        assert series["gw0"] == [1.0, 2.0, 1.0]
        assert series["gw7"] == [1.0, 0.0, 0.0]

    def test_empty_trace(self):
        assert decoder_occupancy([]) == ([], {})

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            decoder_occupancy([], bucket_s=0)


class TestSummarize:
    def test_summary_payload(self):
        summary = summarize_trace(_two_run_trace())
        assert summary["manifest"]["experiment"] == "x"
        assert summary["sim_runs"] == 2
        assert summary["outcome_counts"] == {"decode_failed": 1, "received": 1}
        assert summary["master_retries"] == 1
        assert summary["packets"] == 2
        assert summary["events"] == len(_two_run_trace()) - 1  # sans manifest

    def test_no_manifest(self):
        summary = summarize_trace(_two_run_trace()[1:])
        assert summary["manifest"] is None


class TestRenderOccupancy:
    def test_renders_chart(self):
        out = render_occupancy(_two_run_trace())
        assert "decoder-pool occupancy" in out
        assert "gw0" in out

    def test_empty(self):
        assert render_occupancy([]) == "(no decoder leases in trace)"
