"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench -q

Covers the self-time math, the absent-target path, the compare.py
verdicts, the BENCHMARK.json schema against the code, and a one-pass
smoke run of every workload with the golden check on.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import run

run._import_program()

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, None, "main"],
        ["a", 1.0, 4.0, 0, "main"],
        ["b", 3.0, 6.0, 0, "server"],  # overlaps "a" from another thread
        ["c", 2.0, 3.0, 1, "main"],  # grandchild: not subtracted from root
        ["a", 7.0, 8.0, 0, "main"],
    ]
    stats = tracing.layer_stats(spans)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["c"]["self_s"] == pytest.approx(1.0)


def test_server_thread_spans_are_children_of_the_waiting_client_span():
    tracer = tracing.Tracer()
    client = tracer.begin("master.rtt")

    def handler():
        tracer.end(tracer.begin("master.handle"))

    worker = threading.Thread(target=handler, name="server")
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    tracer.end(client)
    name, start, end, parent, thread = tracer.spans[1]
    assert (name, parent, thread) == ("master.handle", client, "server")
    stats = tracing.layer_stats(tracer.spans)
    handled = stats["master.handle"]["total_s"]
    assert stats["master.rtt"]["self_s"] == pytest.approx(
        stats["master.rtt"]["total_s"] - handled
    )


def test_missing_targets_are_reported_absent_and_the_rest_restored():
    from repro.sim import engine, simulator

    original = simulator.tx_key
    targets = (
        tracing.Target("gone.module", "repro.no_such_module", "f"),
        tracing.Target("gone.attr", "repro.sim.simulator", "Simulator.no_such_method"),
        tracing.Target("key", "repro.sim.simulator", "tx_key"),
        tracing.Target("inherited", "repro.sim.engine", "OnlineSimulator.observations_at"),
    )
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer, targets)
    try:
        assert absent == [
            "repro.no_such_module:f",
            "repro.sim.simulator:Simulator.no_such_method",
        ]
        assert simulator.tx_key is not original
        assert "observations_at" in vars(engine.OnlineSimulator)
    finally:
        restore()
    assert simulator.tx_key is original
    assert "observations_at" not in vars(engine.OnlineSimulator)


def _runs(*values):
    return [{"value": v, "q1": v, "q3": v} for v in values]


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ((100, 101, 99, 100), (104, 105, 103, 104), "lower", "within"),
        ((100, 101, 99, 100), (120, 121, 119, 120), "lower", "worse"),
        ((100, 101, 99, 100), (80, 81, 79, 80), "higher", "worse"),
        ((100, 101, 99, 100), (120, 121, 119, 120), "higher", "within"),
        ((70, 100, 130, 160), (150, 155, 150, 152), "lower", "unresolved"),
        ((70, 100, 130, 160), (50, 55, 60, 65), "lower", "within"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    result, _ = compare.verdict(_runs(*a), _runs(*b), 0.10, better)
    assert result == expected


def test_compare_uses_a_single_runs_own_quartiles_as_its_spread():
    wide = [{"value": 100.0, "q1": 80.0, "q3": 120.0}]
    assert compare.verdict(wide, _runs(130.0), 0.10, "lower")[0] == "unresolved"
    narrow = [{"value": 100.0, "q1": 99.0, "q3": 101.0}]
    assert compare.verdict(narrow, _runs(130.0), 0.10, "lower")[0] == "worse"


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == run.E2E
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layers == tracing.PER_LAYER


def test_guard_rejects_an_attached_observability_slot():
    from repro.obs import runtime

    run._guard()
    runtime.PERF = object()
    try:
        with pytest.raises(RuntimeError):
            run._guard()
    finally:
        runtime.PERF = None


# Layers each workload must show with non-zero self time when traced.
LAYERS = {
    "fig13-12k": ("sim.run", "sim.observe", "gateway.receive", "gateway.detect",
                  "gateway.dispatch", "phy.decode_ok"),
    "fig13-2k": ("sim.run", "sim.observe", "gateway.receive", "gateway.detect",
                 "gateway.dispatch", "phy.decode_ok"),
    "coexist-faults": ("sim.run", "sim.observe", "gateway.detect", "phy.decode_ok"),
    "upgrade-12k": ("core.plan", "core.build_cp_input", "core.evolve", "core.fitness",
                    "core.apply_config", "master.handle"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_pass_smoke_run_matches_golden(name):
    golden = json.loads((Path(run.BENCH_DIR) / "golden.json").read_text())
    assert "0" in golden[name] and "1" in golden[name]
    result, doc = run.run_workload(name, seed=0, seconds=0, trace=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["outputs"] == golden[name]["0"]
    assert set(result["metrics"]) == set(run.E2E)
    assert set(result["per_layer"]) == set(tracing.PER_LAYER)
    assert doc["absent"] == []
    for layer in LAYERS[name]:
        assert doc["layers"][layer]["self_s"] > 0, layer
    if name.startswith("fig13"):
        assert result["per_layer"]["sim.run.self_share"]["value"] <= 0.10
