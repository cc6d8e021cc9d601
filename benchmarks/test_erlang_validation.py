"""Benchmark: decoder-pool blocking vs Erlang-B (model validation)."""

from repro.experiments.erlang_validation import run_erlang_validation

from bench_utils import report, run_once


def test_simulator_matches_erlang_b(benchmark):
    result = run_once(benchmark, run_erlang_validation)
    report(
        "Model validation: simulated decoder loss vs Erlang-B blocking "
        "(offered load in decoder-service Erlangs, 16 decoders)",
        result,
    )
    # EXPERIMENTS.md's claim: within +/-0.003 at every offered load.
    for sim_loss, theory in zip(result["simulated"], result["erlang_b"]):
        assert abs(sim_loss - theory) <= 0.003
