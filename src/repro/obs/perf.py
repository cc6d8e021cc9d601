"""Performance observatory: phase counters, throughput, and hotspots.

This module supplies the phase taxonomy (:class:`Phase`) behind the
benchmark's per-layer record: ``bench/run.py --trace 1`` attaches a
:class:`PerfProbe` and persists each phase's items and wall share
beside the traced layer times.  It also feeds the events-per-second
trajectory in ``benchmarks/BENCH_engine.json``.  Its parts:

* :class:`PerfProbe` — a process-local probe (the ``runtime.PERF``
  slot, guarded exactly like ``TRACE``) collecting **exact per-phase
  counters** and **sampled wall timings** from the instrumented hot
  path: the :mod:`repro.sim` engines, the gateway
  detect/dispatch/decode pipeline, the phy link-budget and
  interference evaluation, the retransmission rounds, the channel
  planner and the capacity upgrade's steps.
* Throughput: engine events per wall second and simulated seconds per
  wall second, plus an optional ``tracemalloc`` memory high-water.
* Hotspots: top-N functions by own time via stdlib :mod:`cProfile`
  (:func:`profile_hotspots`), used by ``repro.tools profile``.

Determinism contract (DESIGN.md §13): the probe never touches
simulation state and never feeds the trace — enabling it cannot change
a single trace byte.  Its report separates a ``deterministic`` section
(phase call/item counts, run totals, simulated-time coverage — byte
identical under one seed) from a ``wall`` section holding every
wall-clock-derived reading; :mod:`repro.obs.regress` drops the entire
``wall`` subtree via its volatile-key filter, so perf reports can be
regress-gated on the deterministic half alone.

This module is on the DET002 telemetry allowlist: wall-clock readings
taken here surface only in the ``wall`` report section, never in
simulated time.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import runtime

__all__ = [
    "PERF_SCHEMA_VERSION",
    "Phase",
    "PHASES",
    "PhaseStat",
    "PerfProbe",
    "phase_timed",
    "perf_count",
    "profile_hotspots",
    "run_profiled",
    "render_phase_table",
    "render_hotspots",
    "render_throughput",
]

PERF_SCHEMA_VERSION = 1


class Phase:
    """The hot-path phase taxonomy (DESIGN.md §13).

    One phase per stage of the per-packet pipeline, the capacity
    upgrade's steps and the retransmission rounds; phases never
    overlap, so their estimated wall times sum to an attribution of
    the run.
    """

    OBSERVE = "phy.observe"
    DETECT = "gw.detect"
    DISPATCH = "gw.dispatch"
    DECODE = "gw.decode"
    PHY_DECODE = "phy.decode"
    TIMELINE = "sim.timeline"
    COLLECT = "sim.collect"
    EMIT = "obs.emit"
    RETRANSMIT = "sim.retransmit"
    PLAN = "core.plan"
    SYNC = "upgrade.sync"
    DISTRIBUTE = "upgrade.distribute"
    REBOOT = "upgrade.reboot"


# phase -> one-line description, in canonical table order.
PHASES: Dict[str, str] = {
    Phase.SYNC: "Master spectrum-sharing exchange",
    Phase.PLAN: "CP input + GA solve + refinement (items = devices)",
    Phase.DISTRIBUTE: "gateway configuration distribution",
    Phase.REBOOT: "gateway reconfiguration and reboot",
    Phase.OBSERVE: "phy link-budget -> observation sets",
    Phase.DETECT: "channel match + preamble detection",
    Phase.DISPATCH: "FCFS decoder allocation",
    Phase.DECODE: "phy interference + SINR decode evaluation",
    Phase.PHY_DECODE: "decode_ok decisions (counted inside gw.decode; "
    "items = signals evaluated)",
    Phase.TIMELINE: "online timeline events + outage windows",
    Phase.COLLECT: "reception record collection",
    Phase.EMIT: "final outcome emission (trace/metrics)",
    Phase.RETRANSMIT: "retransmission round scheduling (items = fresh "
    "retransmissions)",
}


class PhaseStat:
    """Counters and sampled wall timing for one phase.

    ``calls`` and ``items`` are exact (and therefore deterministic for
    a seeded run); wall time is sampled every ``sample_every``-th call
    and scaled by items, keeping the enabled-probe overhead within the
    <5 % hot-path budget asserted by ``benchmarks/test_perf_overhead``.
    """

    __slots__ = (
        "name",
        "sample_every",
        "calls",
        "items",
        "sampled",
        "sampled_items",
        "sampled_wall_s",
    )

    def __init__(self, name: str, sample_every: int = 1) -> None:
        self.name = name
        self.sample_every = max(1, sample_every)
        self.calls = 0
        self.items = 0
        self.sampled = 0
        self.sampled_items = 0
        self.sampled_wall_s = 0.0

    def begin(self) -> Optional[float]:
        """Start of one call: a timestamp when this call is sampled."""
        if self.calls % self.sample_every == 0:
            return perf_counter()
        return None

    def end(self, t0: Optional[float], items: int = 1) -> None:
        """End of one call; always counts, times only sampled calls."""
        self.calls += 1
        self.items += items
        if t0 is not None:
            self.sampled += 1
            self.sampled_items += items
            self.sampled_wall_s += perf_counter() - t0

    def est_wall_s(self) -> float:
        """Estimated total wall time, scaled from the sampled calls.

        Items-weighted (per-item cost x total items) so heterogeneous
        batch sizes do not bias the estimate; falls back to call
        scaling for item-free phases.
        """
        if self.sampled == 0:
            return 0.0
        if self.sampled_items > 0 and self.items > 0:
            return self.sampled_wall_s / self.sampled_items * self.items
        return self.sampled_wall_s / self.sampled * self.calls


class PerfProbe:
    """Collects hot-path phase statistics for one observed execution.

    Single-threaded by design: the profiling CLI drives one simulation
    at a time.  Attach with :meth:`attach`; :func:`repro.obs.observe`
    does not manage this slot.  Hot-path hooks read ``runtime.PERF``
    and are a single attribute load plus a ``None`` check when
    disabled.
    """

    def __init__(
        self, sample_every: int = 1, track_memory: bool = False
    ) -> None:
        self.sample_every = max(1, sample_every)
        self.track_memory = track_memory
        self._stats: Dict[str, PhaseStat] = {}
        self.runs = 0
        self.run_txs = 0
        self.sim_time_s = 0.0
        self.memory_peak_kb: Optional[float] = None
        self._attached_wall_s = 0.0

    # -- collection hooks --------------------------------------------------

    def stat(self, phase: str) -> PhaseStat:
        """The (created-on-first-use) stat record for ``phase``."""
        stat = self._stats.get(phase)
        if stat is None:
            stat = PhaseStat(phase, self.sample_every)
            self._stats[phase] = stat
        return stat

    def count(self, phase: str, items: int = 1) -> None:
        """Count one untimed call of ``phase`` covering ``items`` units."""
        stat = self.stat(phase)
        stat.calls += 1
        stat.items += items

    def note_run(self, txs: int, sim_start_s: float, sim_end_s: float) -> None:
        """Record one simulated window entering the engine."""
        self.runs += 1
        self.run_txs += txs
        if sim_end_s > sim_start_s:
            self.sim_time_s += sim_end_s - sim_start_s

    # -- lifecycle ---------------------------------------------------------

    @contextmanager
    def attach(self) -> Iterator["PerfProbe"]:
        """Install this probe into ``runtime.PERF`` for the block.

        Raises ``RuntimeError`` when another probe is already attached.
        """
        if runtime.PERF is not None:
            raise RuntimeError("a performance probe is already attached")
        runtime.PERF = self
        t0 = perf_counter()
        if self.track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
        try:
            yield self
        finally:
            self._attached_wall_s += perf_counter() - t0
            if self.track_memory and tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.memory_peak_kb = peak / 1024.0
            runtime.PERF = None

    # -- reporting ---------------------------------------------------------

    @property
    def events(self) -> int:
        """Total engine events: every counted phase application.

        Each phase a packet traverses is one event of the discrete-event
        loop, mirroring how the BENCH trajectories count trace events.
        Deterministic for a seeded run.
        """
        return sum(stat.items for stat in self._stats.values())

    def report(
        self,
        total_wall_s: Optional[float] = None,
        hotspots: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """The perf report: ``deterministic`` + ``wall`` sections.

        Everything wall-clock-derived lives under the single ``wall``
        key, which the regress volatile-key filter drops wholesale —
        the deterministic section alone gates cross-run comparisons.
        """
        wall_s = (
            total_wall_s if total_wall_s is not None else self._attached_wall_s
        )
        det_phases: Dict[str, Dict[str, int]] = {}
        wall_phases: Dict[str, Dict[str, float]] = {}
        attributed_s = 0.0
        for name in sorted(self._stats):
            stat = self._stats[name]
            det_phases[name] = {"calls": stat.calls, "items": stat.items}
            est = stat.est_wall_s()
            attributed_s += est
            wall_phases[name] = {
                "sampled": float(stat.sampled),
                "sampled_s": stat.sampled_wall_s,
                "est_s": est,
                "share": est / wall_s if wall_s > 0 else 0.0,
                "per_item_us": (
                    est / stat.items * 1e6 if stat.items else 0.0
                ),
            }
        events = self.events
        report: Dict[str, Any] = {
            "schema": PERF_SCHEMA_VERSION,
            "deterministic": {
                "runs": self.runs,
                "run_txs": self.run_txs,
                "events": events,
                "sim_time_s": self.sim_time_s,
                "sample_every": self.sample_every,
                "phases": det_phases,
            },
            "wall": {
                "total_s": wall_s,
                "events_per_s": events / wall_s if wall_s > 0 else 0.0,
                "sim_s_per_wall_s": (
                    self.sim_time_s / wall_s if wall_s > 0 else 0.0
                ),
                "attributed_s": attributed_s,
                "attributed_share": (
                    attributed_s / wall_s if wall_s > 0 else 0.0
                ),
                "phases": wall_phases,
                "memory_peak_kb": self.memory_peak_kb,
            },
        }
        if hotspots is not None:
            report["wall"]["hotspots"] = hotspots
        return report


class phase_timed:
    """Times one phase block against the active probe (no-op when off).

    Used where a whole phase runs as one block (per-gateway batches,
    planner solves, upgrade steps).  ``items`` scales
    the per-item cost estimate; a block that learns its item count
    late may set it on the yielded object before it exits.
    """

    __slots__ = ("phase", "items", "_stat", "_t0")

    phase: str
    items: int
    _stat: Optional[PhaseStat]
    _t0: Optional[float]

    def __init__(self, phase: str, items: int = 1) -> None:
        self.phase = phase
        self.items = items

    def __enter__(self) -> "phase_timed":
        probe = runtime.PERF
        if probe is not None:
            self._stat = probe.stat(self.phase)
            self._t0 = self._stat.begin()
        else:
            self._stat = None
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self._stat is not None:
            self._stat.end(self._t0, self.items)
        return False


def perf_count(phase: str, items: int = 1) -> None:
    """Count ``items`` units of ``phase`` on the active probe, if any."""
    probe = runtime.PERF
    if probe is not None:
        probe.count(phase, items)


# -- cProfile hotspots ------------------------------------------------------


def _short_path(path: str) -> str:
    for marker in ("/src/", "/lib/"):
        idx = path.rfind(marker)
        if idx >= 0:
            return path[idx + len(marker):]
    return path.rsplit("/", 1)[-1]


def profile_hotspots(
    fn: Callable[[], Any], top_n: int = 15
) -> Tuple[Any, List[Dict[str, Any]]]:
    """Run ``fn`` under :mod:`cProfile`; top-``top_n`` rows by own time.

    Returns ``(fn(), rows)`` where each row carries the function name,
    its (shortened) location, call count, own time and cumulative time.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    for (filename, line, func), entry in stats.stats.items():  # type: ignore[attr-defined]
        cc, nc, tottime, cumtime = entry[0], entry[1], entry[2], entry[3]
        rows.append(
            {
                "func": func,
                "file": _short_path(filename),
                "line": line,
                "calls": nc,
                "primitive_calls": cc,
                "tottime_s": tottime,
                "cumtime_s": cumtime,
            }
        )
    rows.sort(key=lambda r: (-r["tottime_s"], r["file"], r["func"]))
    return result, rows[:top_n]


def run_profiled(
    fn: Callable[[], Any],
    sample_every: int = 1,
    cprofile: bool = True,
    memory: bool = False,
    top_n: int = 15,
) -> Tuple[Any, Dict[str, Any]]:
    """Execute ``fn`` under the full observatory; returns (result, report).

    Orchestrates the probe, optional :mod:`cProfile` hotspot capture and
    optional ``tracemalloc`` memory tracking, then assembles the perf
    report.
    """
    probe = PerfProbe(sample_every=sample_every, track_memory=memory)
    hotspots: Optional[List[Dict[str, Any]]] = None
    t0 = perf_counter()
    with probe.attach():
        if cprofile:
            result, hotspots = profile_hotspots(fn, top_n=top_n)
        else:
            result = fn()
    total_wall_s = perf_counter() - t0
    report = probe.report(total_wall_s=total_wall_s, hotspots=hotspots)
    return result, report


# -- rendering --------------------------------------------------------------


def _ordered_phases(report: Dict[str, Any]) -> List[str]:
    present = set(report["deterministic"]["phases"])
    ordered = [p for p in PHASES if p in present]
    ordered.extend(sorted(present - set(PHASES)))
    return ordered


def render_phase_table(report: Dict[str, Any], width: int = 24) -> str:
    """ASCII phase table: calls, items, estimated wall time, share."""
    det = report["deterministic"]["phases"]
    wall = report["wall"]["phases"]
    if not det:
        return "(no phases recorded)"
    names = _ordered_phases(report)
    col = max(len(name) for name in [*names, "attributed"])
    head = (
        f"{'phase':<{col}} {'calls':>9} {'items':>10} {'est_ms':>9} "
        f"{'us/item':>8} {'share':>6}  "
    )
    lines = [head, "-" * (len(head) + width)]
    for name in names:
        d, w = det[name], wall[name]
        bar = "#" * int(round(w["share"] * width))
        lines.append(
            f"{name:<{col}} {d['calls']:>9d} {d['items']:>10d} "
            f"{w['est_s'] * 1e3:>9.2f} {w['per_item_us']:>8.2f} "
            f"{w['share']:>6.1%}  {bar}"
        )
    total = report["wall"]
    lines.append("-" * (len(head) + width))
    lines.append(
        f"{'attributed':<{col}} {'':>9} {'':>10} "
        f"{total['attributed_s'] * 1e3:>9.2f} {'':>8} "
        f"{total['attributed_share']:>6.1%}"
    )
    return "\n".join(lines)


def render_hotspots(report: Dict[str, Any]) -> str:
    """ASCII top-N hotspot table from the cProfile rows."""
    rows = report["wall"].get("hotspots")
    if not rows:
        return "(no hotspot profile captured)"
    head = (
        f"{'own_ms':>9} {'cum_ms':>9} {'calls':>10}  function"
    )
    lines = [head, "-" * 72]
    for row in rows:
        lines.append(
            f"{row['tottime_s'] * 1e3:>9.2f} {row['cumtime_s'] * 1e3:>9.2f} "
            f"{row['calls']:>10d}  {row['func']} "
            f"({row['file']}:{row['line']})"
        )
    return "\n".join(lines)


def render_throughput(report: Dict[str, Any]) -> str:
    """One-paragraph throughput summary (events/s, sim-s per wall-s)."""
    det = report["deterministic"]
    wall = report["wall"]
    lines = [
        f"runs:            {det['runs']} "
        f"({det['run_txs']} transmissions)",
        f"engine events:   {det['events']}",
        f"sim time:        {det['sim_time_s']:.2f} s",
        f"wall time:       {wall['total_s']:.3f} s",
        f"throughput:      {wall['events_per_s']:,.0f} events/s, "
        f"{wall['sim_s_per_wall_s']:.2f} sim-s/wall-s",
        f"attributed:      {wall['attributed_share']:.1%} of wall time",
    ]
    if wall.get("memory_peak_kb") is not None:
        lines.append(f"memory peak:     {wall['memory_peak_kb']:,.0f} KiB")
    return "\n".join(lines)
