"""Tests for deterministic multi-shard trace merge."""

import json

import pytest

from repro.obs import TraceContext, observe
from repro.obs.merge import (
    MergeError,
    discover_shards,
    load_shard,
    merge_digest,
    merge_shards,
    merge_to_jsonl,
)


def _write_shard(path, ctx, events):
    """A minimal v2 shard: manifest line + pre-stamped events."""
    rows = [{"type": "manifest", "schema": 2, "ctx": ctx.to_wire()}]
    rows.extend(events)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _traced_shard(tmp_path, name, emits):
    """Record events through a real session so lam stamping applies."""
    root = TraceContext.root("merge-test")
    with observe(trace=True, metrics=False) as session:
        session.recorder.set_context(root.child(name))
        for etype, t, fields in emits:
            session.recorder.emit(etype, t=t, **fields)
        out = tmp_path / f"{name}.jsonl"
        session.recorder.write_jsonl(str(out))
    return str(out)


class TestDiscoverShards:
    def test_skips_flight_dumps_and_sorts(self, tmp_path):
        (tmp_path / "b.jsonl").write_text("{}\n")
        (tmp_path / "a.jsonl").write_text("{}\n")
        (tmp_path / "flight-123.jsonl").write_text("{}\n")
        (tmp_path / "notes.txt").write_text("x\n")
        names = [p.rsplit("/", 1)[-1] for p in discover_shards(str(tmp_path))]
        assert names == ["a.jsonl", "b.jsonl"]

    def test_empty_directory_refused(self, tmp_path):
        with pytest.raises(MergeError, match="no trace shards"):
            discover_shards(str(tmp_path))

    def test_single_file_passthrough(self, tmp_path):
        p = tmp_path / "one.jsonl"
        p.write_text("{}\n")
        assert discover_shards(str(p)) == [str(p)]


class TestLoadShard:
    def test_missing_manifest_refused(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"seq":1,"type":"gw.lock_on","lam":1}\n')
        with pytest.raises(MergeError, match="no manifest"):
            load_shard(str(p))

    def test_concatenated_shards_refused_with_pointer(self, tmp_path):
        a = _traced_shard(tmp_path, "a", [("gw.lock_on", 1.0, {"gw": 0})])
        b = _traced_shard(tmp_path, "b", [("gw.lock_on", 2.0, {"gw": 1})])
        cat = tmp_path / "cat.jsonl"
        cat.write_text(
            open(a).read() + open(b).read()
        )
        with pytest.raises(MergeError, match="trace merge"):
            load_shard(str(cat))


class TestMergeShards:
    def test_sim_time_primary_order(self, tmp_path):
        root = TraceContext.root("order")
        a = _write_shard(
            tmp_path / "a.jsonl",
            root.child("a"),
            [
                {"seq": 1, "type": "gw.reception", "t": 1.0, "lam": 1},
                {"seq": 2, "type": "gw.reception", "t": 5.0, "lam": 2},
            ],
        )
        b = _write_shard(
            tmp_path / "b.jsonl",
            root.child("b"),
            [{"seq": 1, "type": "gw.reception", "t": 3.0, "lam": 1}],
        )
        merged = merge_shards([a, b])
        assert [e["t"] for e in merged[1:]] == [1.0, 3.0, 5.0]
        assert [e["seq"] for e in merged[1:]] == [1, 2, 3]

    def test_timeless_event_inherits_watermark_then_lamport_breaks_tie(
        self, tmp_path
    ):
        root = TraceContext.root("wm")
        # Shard a: a Master event with no t, emitted after t=2.0.
        a = _write_shard(
            tmp_path / "a.jsonl",
            root.child("a"),
            [
                {"seq": 1, "type": "gw.reception", "t": 2.0, "lam": 3},
                {"seq": 2, "type": "master.crash", "lam": 9},
            ],
        )
        b = _write_shard(
            tmp_path / "b.jsonl",
            root.child("b"),
            [
                {"seq": 1, "type": "gw.reception", "t": 2.0, "lam": 5},
                {"seq": 2, "type": "gw.reception", "t": 4.0, "lam": 6},
            ],
        )
        merged = merge_shards([a, b])
        types = [(e["type"], e.get("lam")) for e in merged[1:]]
        # Watermark puts the crash at t=2.0; lam 9 > 5 puts it after the
        # shard-b reception that causally preceded it.
        assert types == [
            ("gw.reception", 3),
            ("gw.reception", 5),
            ("master.crash", 9),
            ("gw.reception", 6),
        ]

    def test_events_gain_shard_and_sseq(self, tmp_path):
        shard = _traced_shard(
            tmp_path, "w0", [("gw.lock_on", 1.0, {"gw": 0})]
        )
        merged = merge_shards([shard])
        ev = merged[1]
        assert ev["sseq"] == 1
        assert isinstance(ev["shard"], str) and ev["shard"]

    def test_duplicate_shard_ids_refused(self, tmp_path):
        root = TraceContext.root("dup")
        events = [{"seq": 1, "type": "gw.lock_on", "t": 1.0, "lam": 1}]
        a = _write_shard(tmp_path / "a.jsonl", root.child("same"), events)
        b = _write_shard(tmp_path / "b.jsonl", root.child("same"), events)
        with pytest.raises(MergeError, match="duplicate shard id"):
            merge_shards([a, b])

    def test_merged_head_names_single_trace(self, tmp_path):
        a = _traced_shard(tmp_path, "a", [("gw.lock_on", 1.0, {"gw": 0})])
        merged = merge_shards([a])
        head = merged[0]
        assert head["merged"] is True
        assert head["trace"] == TraceContext.root("merge-test").trace_id
        assert len(head["shards"]) == 1

    def test_merge_is_input_order_independent(self, tmp_path):
        root = TraceContext.root("perm")
        a = _write_shard(
            tmp_path / "a.jsonl",
            root.child("a"),
            [{"seq": 1, "type": "gw.reception", "t": 1.0, "lam": 1}],
        )
        b = _write_shard(
            tmp_path / "b.jsonl",
            root.child("b"),
            [{"seq": 1, "type": "gw.reception", "t": 2.0, "lam": 1}],
        )
        fwd = merge_to_jsonl([a, b])
        rev = merge_to_jsonl([b, a])
        assert fwd == rev
        assert merge_digest(fwd) == merge_digest(rev)
