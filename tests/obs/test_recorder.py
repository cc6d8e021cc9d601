"""Tests for the trace recorder and its JSONL round-trip."""

import json
import threading

import pytest

from repro.obs.events import EventType, TraceEvent
from repro.obs.recorder import TRACE_SCHEMA_VERSION, TraceRecorder, load_trace


class TestTraceEvent:
    def test_to_dict_shape(self):
        ev = TraceEvent(3, EventType.GW_LOCK_ON, 1.5, {"gw": 0, "node": 7})
        assert ev.to_dict() == {
            "seq": 3,
            "type": "gw.lock_on",
            "t": 1.5,
            "gw": 0,
            "node": 7,
        }

    def test_none_time_omitted(self):
        ev = TraceEvent(1, EventType.MASTER_REQUEST, None, {"req": "register"})
        assert "t" not in ev.to_dict()

    def test_wall_fields_stripped_by_default(self):
        ev = TraceEvent(1, EventType.GA_GENERATION, None, {"gen": 0, "gen_wall_s": 0.25})
        assert "gen_wall_s" not in ev.to_dict()
        assert ev.to_dict(include_wall=True)["gen_wall_s"] == 0.25


class TestTraceRecorder:
    def test_emit_sequences_and_counts(self):
        rec = TraceRecorder()
        rec.emit(EventType.GW_LOCK_ON, t=1.0, gw=0)
        rec.emit(EventType.GW_LOCK_ON, t=2.0, gw=0)
        rec.emit(EventType.GW_REBOOT, t=3.0, gw=0)
        assert len(rec) == 3
        assert [e.seq for e in rec.events] == [1, 2, 3]
        assert rec.counts == {"gw.lock_on": 2, "gw.reboot": 1}

    def test_max_events_cap_counts_but_drops(self):
        rec = TraceRecorder(max_events=2)
        for i in range(5):
            rec.emit(EventType.GW_LOCK_ON, t=float(i))
        assert len(rec) == 2
        assert rec.dropped_events == 3
        # Counts stay exact even past the storage cap.
        assert rec.counts["gw.lock_on"] == 5

    def test_count_only_mode(self):
        rec = TraceRecorder(max_events=0)
        rec.emit(EventType.GW_RECEPTION, outcome="received")
        assert len(rec) == 0
        assert rec.counts["gw.reception"] == 1

    def test_manifest_first_in_export(self):
        rec = TraceRecorder(manifest={"experiment": "x", "seed": 1})
        rec.emit(EventType.SIM_RUN_START, run=1)
        dicts = rec.to_dicts()
        assert dicts[0]["type"] == EventType.MANIFEST
        assert dicts[0]["schema"] == TRACE_SCHEMA_VERSION
        assert dicts[0]["experiment"] == "x"
        assert dicts[1]["type"] == EventType.SIM_RUN_START

    def test_jsonl_round_trip(self, tmp_path):
        rec = TraceRecorder(manifest={"experiment": "x"})
        rec.emit(EventType.GW_LOCK_ON, t=0.5, gw=1, node=2)
        path = tmp_path / "trace.jsonl"
        rec.write_jsonl(str(path))
        loaded = load_trace(str(path))
        assert len(loaded) == 2
        assert loaded[0]["type"] == "manifest"
        assert loaded[1] == {
            "seq": 1,
            "type": "gw.lock_on",
            "t": 0.5,
            "gw": 1,
            "node": 2,
        }

    def test_canonical_bytes_excludes_manifest_and_wall(self):
        a = TraceRecorder(manifest={"started_at": "now-a"})
        b = TraceRecorder(manifest={"started_at": "now-b"})
        for rec, wall in ((a, 0.1), (b, 99.0)):
            rec.emit(EventType.GA_GENERATION, gen=0, best=1.0, gen_wall_s=wall)
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_clear_resets_everything(self):
        rec = TraceRecorder()
        rec.emit(EventType.GW_LOCK_ON, t=0.0)
        rec.next_run_index()
        rec.clear()
        assert len(rec) == 0
        assert rec.counts == {}
        assert rec.next_run_index() == 1

    def test_next_run_index_monotone(self):
        rec = TraceRecorder()
        assert [rec.next_run_index() for _ in range(3)] == [1, 2, 3]

    def test_thread_safe_emit(self):
        rec = TraceRecorder()

        def worker():
            for _ in range(500):
                rec.emit(EventType.MASTER_REQUEST, req="status")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(rec) == 2000
        # Sequence numbers stay unique and gapless under contention.
        assert sorted(e.seq for e in rec.events) == list(range(1, 2001))

    def test_load_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seq":1,"type":"gw.lock_on"}\n\n{"seq":2,"type":"gw.reboot"}\n')
        assert [e["seq"] for e in load_trace(str(path))] == [1, 2]
