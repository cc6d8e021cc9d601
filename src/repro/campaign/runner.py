"""Parallel campaign execution with crash-tolerant resume.

The runner expands a scenario spec into its seeded run grid, skips
every run whose result already sits in the store (resume), and executes
the rest — inline for ``jobs=1``, on a :class:`ProcessPoolExecutor`
otherwise.  Each run's seed is embedded in its
:class:`~repro.scenarios.spec.RunConfig` *before* any worker starts,
so results are bit-identical at any parallelism: the pool only decides
*when* a run executes, never *what* it computes.

Fleet telemetry: every worker carries a per-run
:class:`~repro.obs.perf.PerfProbe` (sampled timings, exact phase
counts) whose report lands under the record's ``perf`` key — the
deterministic half is identical at any parallelism, the ``wall`` half
is scrubbed by every comparison layer — and, when the campaign store is
reachable, writes a heartbeat file after each run so ``campaign status
--live`` and ``watch --campaign`` can show fleet progress without
touching the result files.

Wall-clock readings are confined to the run manifests, the ``perf``
``wall`` section, and the heartbeats (all via :mod:`repro.obs.manifest`
helpers); comparisons scrub them.

Causal tracing (``trace=True``): the campaign mints one
:class:`~repro.obs.causal.TraceContext` root from its name and spec
digest; every worker derives a child span for its run, records the run
under a full observability session (with a flight recorder pointed at
the trace directory), and writes a per-run shard to
``<out>/traces/<run_id>.jsonl``.  Contexts and shard contents are
derived purely from the spec, so the shard set is byte-identical at any
parallelism and ``repro.tools trace merge`` reassembles one
deterministic campaign-wide trace.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional

from ..obs import observe
from ..obs import runtime as _obs_runtime
from ..obs.causal import TraceContext
from ..obs.flight import FlightRecorder
from ..obs.manifest import Stopwatch, build_manifest, utc_now_iso, wall_now_s
from ..obs.perf import PerfProbe, maybe_attach
from ..scenarios.compile import execute_run
from ..scenarios.spec import RunConfig, ScenarioSpec
from .store import CampaignStore

__all__ = ["execute_one", "run_campaign", "progress_line"]

ProgressFn = Callable[[str], None]

# Per-run phase timings are sampled 1-in-N in campaign workers: exact
# counters, ~zero timing overhead (the profile CLI uses 1 for full
# timing fidelity instead).
WORKER_SAMPLE_EVERY = 32

# Per-worker-process tally.  Pool workers persist across tasks, so this
# module state accumulates runs-completed and busy time per worker and
# rides along in every heartbeat.
_WORKER_STATE: Dict[str, Any] = {"runs_done": 0, "busy_wall_s": 0.0}


def _emit_heartbeat(
    store: CampaignStore,
    campaign: str,
    run: RunConfig,
    wall_s: float,
    events: int,
) -> None:
    _WORKER_STATE["runs_done"] += 1
    _WORKER_STATE["busy_wall_s"] += wall_s
    record = {
        "schema": 1,
        "worker": f"w{os.getpid()}",
        "pid": os.getpid(),
        "campaign": campaign,
        "runs_done": _WORKER_STATE["runs_done"],
        "busy_wall_s": _WORKER_STATE["busy_wall_s"],
        "last_run_id": run.run_id,
        "last_index": run.index,
        "last_wall_s": wall_s,
        "last_events": events,
        "last_eps": events / wall_s if wall_s > 0 else 0.0,
        "updated_at": utc_now_iso(),
        "updated_wall_s": wall_now_s(),
    }
    try:
        store.write_heartbeat(record)
    except OSError:
        pass  # telemetry only: never fail a run over a heartbeat


def _run_traced(
    run: RunConfig, store: CampaignStore, trace_root: Dict[str, Any]
) -> Any:
    """Execute ``run`` under a causal-tracing session; write its shard.

    The worker adopts a child span of the campaign root (derived from
    the run id — deterministic at any parallelism), records every sim
    and control-plane event, and keeps a flight recorder pointed at the
    trace directory so a crashing worker leaves a black-box dump next
    to the shards.  The shard is written atomically even when the run
    raises — a partial trace is exactly what the post-mortem needs.
    """
    root = TraceContext.from_wire(trace_root)
    if root is None:
        return execute_run(run)
    os.makedirs(store.traces_dir, exist_ok=True)
    flight = FlightRecorder(out_dir=store.traces_dir)
    manifest = {
        "experiment": root.run_id,
        "run_id": run.run_id,
        "run_index": run.index,
        "seed": run.seed,
    }
    with observe(
        trace=True, metrics=False, flight=flight, manifest=manifest
    ) as session:
        assert session.recorder is not None
        session.recorder.set_context(root.child(run.run_id))
        try:
            result = execute_run(run)
        except Exception:
            flight.dump(reason="worker_error")
            store.write_trace_shard(
                run.run_id, session.recorder.to_jsonl(include_wall=False)
            )
            raise
        store.write_trace_shard(
            run.run_id, session.recorder.to_jsonl(include_wall=False)
        )
    return result


def execute_one(
    run: RunConfig,
    experiment: str = "campaign",
    out_dir: Optional[str] = None,
    trace_root: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Execute one run and wrap it into a self-contained store record.

    Top-level (picklable) on purpose: this is the process-pool worker.
    When ``out_dir`` names the campaign store, a heartbeat is written
    after the run so live status can show fleet progress.  The per-run
    perf report (``perf`` key: deterministic phase counts + wall-only
    throughput) is attached opportunistically — an outer probe (e.g.
    ``repro.tools profile`` around a whole campaign) takes precedence.
    With ``trace_root`` (the campaign root context's wire form) the run
    executes under a tracing session and leaves a shard in the store's
    trace directory — unless an observability session is already active
    in this process (sessions don't nest; the outer one wins).
    """
    watch = Stopwatch()
    probe = PerfProbe(sample_every=WORKER_SAMPLE_EVERY)
    traceable = (
        trace_root is not None
        and out_dir is not None
        and not _obs_runtime.session_active()
    )
    with maybe_attach(probe) as attached:
        if traceable:
            assert out_dir is not None and trace_root is not None
            result = _run_traced(run, CampaignStore(out_dir), trace_root)
        else:
            result = execute_run(run)
    wall_s = watch.elapsed_s()
    manifest = build_manifest(
        experiment=experiment,
        seed=run.seed,
        config=run.config,
        wall_time_s=wall_s,
        extra={"run_id": run.run_id, "run_index": run.index},
    )
    record = {
        "run_id": run.run_id,
        "index": run.index,
        "seed": run.seed,
        "overrides": run.overrides,
        "result": result,
        "manifest": manifest,
    }
    events = 0
    if attached is not None:
        record["perf"] = attached.report(total_wall_s=wall_s)
        events = attached.events
    if out_dir is not None:
        _emit_heartbeat(
            CampaignStore(out_dir), experiment, run, wall_s, events
        )
    return record


def progress_line(done: int, total: int, elapsed_s: float) -> str:
    """``3/10, 12.3 runs/min, ETA 34s`` — the live progress suffix."""
    if done <= 0 or elapsed_s <= 0:
        return f"{done}/{total}"
    rate_per_s = done / elapsed_s
    eta_s = (total - done) / rate_per_s
    if eta_s >= 90:
        eta = f"{eta_s / 60:.1f}min"
    else:
        eta = f"{eta_s:.0f}s"
    return f"{done}/{total}, {rate_per_s * 60:.1f} runs/min, ETA {eta}"


def run_campaign(
    spec: ScenarioSpec,
    out_dir: str,
    jobs: int = 1,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    trace: bool = False,
) -> Dict[str, Any]:
    """Run every pending run of ``spec`` into the store at ``out_dir``.

    Args:
        spec: Parsed scenario spec (its sweep defines the run grid).
        out_dir: Campaign directory (created on first use; re-use
            requires the same spec digest).
        jobs: Worker processes; ``1`` executes inline in this process.
        resume: Skip runs whose results already parse on disk.  With
            ``resume=False`` every run re-executes and overwrites.
        progress: Optional callback for one-line progress messages
            (completion counts, runs/min, ETA).
        trace: Record each run under a causal-tracing session and write
            per-run shards to ``<out>/traces/`` (see module docstring).

    Returns:
        Summary dict: totals, the runs executed/skipped, store paths.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    say = progress or (lambda _msg: None)
    store = CampaignStore(out_dir)
    store.initialize(spec)
    store.clear_heartbeats()  # stale telemetry from a previous attempt
    trace_root: Optional[Dict[str, Any]] = None
    if trace:
        # One root per campaign identity: name + spec digest, so the
        # same campaign re-run (or resumed) rejoins the same trace.
        trace_root = TraceContext.root(
            f"{spec.name}:{spec.digest}", seed=0
        ).to_wire()
    runs = spec.runs()
    done = store.completed_run_ids() if resume else set()
    pending = [r for r in runs if r.run_id not in done]
    say(
        f"campaign {spec.name}: {len(runs)} runs "
        f"({len(runs) - len(pending)} already done, {len(pending)} to go, "
        f"jobs={jobs})"
    )

    watch = Stopwatch()
    executed: List[str] = []
    failures: List[Dict[str, Any]] = []

    def announce(run_id: str) -> None:
        finished = len(executed) + len(failures)
        say(
            f"run {run_id} done "
            f"({progress_line(finished, len(pending), watch.elapsed_s())})"
        )

    if jobs == 1 or len(pending) <= 1:
        for run in pending:
            _finish(store, spec, run, out_dir, failures, executed, say, trace_root)
            if executed and executed[-1] == run.run_id:
                announce(run.run_id)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(execute_one, run, spec.name, out_dir, trace_root): run
                for run in pending
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in finished:
                    run = futures[fut]
                    try:
                        record = fut.result()
                    except Exception as exc:  # noqa: BLE001 - reported per run
                        failures.append({"run_id": run.run_id, "error": str(exc)})
                        say(f"run {run.run_id} FAILED: {exc}")
                        continue
                    store.write_result(record)
                    executed.append(run.run_id)
                    announce(run.run_id)

    store.clear_heartbeats()  # fleet is gone; drop the live telemetry
    summary = {
        "name": spec.name,
        "spec_digest": spec.digest,
        "out_dir": out_dir,
        "total": len(runs),
        "skipped": len(runs) - len(pending),
        "executed": sorted(executed),
        "failed": failures,
        "completed": len(store.completed_run_ids()),
    }
    if trace_root is not None:
        summary["trace_id"] = trace_root["trace"]
        summary["trace_shards"] = len(store.trace_shards())
        summary["traces_dir"] = store.traces_dir
    return summary


def _finish(
    store: CampaignStore,
    spec: ScenarioSpec,
    run: RunConfig,
    out_dir: str,
    failures: List[Dict[str, Any]],
    executed: List[str],
    say: ProgressFn,
    trace_root: Optional[Dict[str, Any]] = None,
) -> None:
    try:
        record = execute_one(run, spec.name, out_dir, trace_root)
    except Exception as exc:  # noqa: BLE001 - reported per run
        failures.append({"run_id": run.run_id, "error": str(exc)})
        say(f"run {run.run_id} FAILED: {exc}")
        return
    store.write_result(record)
    executed.append(run.run_id)
