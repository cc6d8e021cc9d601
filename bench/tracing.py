"""Per-layer tracing for the benchmark's traced run.

The program is traced from outside: :data:`TARGETS` lists the layer
boundaries as (import site, attribute) pairs, and :func:`install` swaps
each for a wrapper that records a span in memory.  Nothing is written
until the run ends.  A target that no longer exists is reported as
absent, so a change that deletes a layer does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Counter = Callable[[Dict[str, float], tuple, object], None]


def _count_observe(counts: Dict[str, float], args: tuple, result: object) -> None:
    # observations_at(self, gateway, transmissions) -> kept observations
    counts["sim.observe.kept"] += len(result)
    counts["sim.observe.seen"] += len(args[2])


def _count_detect(counts: Dict[str, float], args: tuple, result: object) -> None:
    counts["gateway.detect.locked"] += result is not None


def _count_dispatch(counts: Dict[str, float], args: tuple, result: object) -> None:
    counts["gateway.dispatch.admitted"] += sum(r.admitted for r in result)
    counts["gateway.dispatch.offered"] += len(result)


def _count_decode(counts: Dict[str, float], args: tuple, result: object) -> None:
    # decode_ok(rssi, noise, sf, channel, interferers=())
    counts["phy.decode_ok.ok"] += bool(result)
    counts["phy.decode_ok.interferers"] += len(args[4]) if len(args) > 4 else 0


@dataclass(frozen=True)
class Target:
    """One layer boundary: the span name and where the callable lives."""

    span: str
    module: str
    attr: str  # "func" or "Class.method"
    count: Optional[Counter] = None


# Each callable is wrapped at the site its callers look it up: a
# function imported by name into another module is patched there.
TARGETS: Tuple[Target, ...] = (
    Target("sim.run", "repro.sim.simulator", "Simulator.run"),
    Target("sim.run", "repro.sim.engine", "OnlineSimulator.run_online"),
    Target("sim.observe", "repro.sim.simulator", "Simulator.observations_at", _count_observe),
    Target("gateway.receive", "repro.gateway.gateway", "Gateway.receive"),
    Target("gateway.detect", "repro.gateway.gateway", "detect", _count_detect),
    Target("gateway.detect", "repro.sim.engine", "detect", _count_detect),
    Target("gateway.dispatch", "repro.gateway.dispatcher", "FcfsDispatcher.dispatch", _count_dispatch),
    Target("phy.decode_ok", "repro.gateway.gateway", "decode_ok", _count_decode),
    Target("phy.decode_ok", "repro.sim.engine", "decode_ok", _count_decode),
    Target("core.plan", "repro.core.intra_planner", "IntraNetworkPlanner.plan"),
    Target("core.build_cp_input", "repro.core.intra_planner", "build_cp_input"),
    Target("core.evolve", "repro.core.intra_planner", "evolve"),
    Target("core.fitness", "repro.core.cp_problem", "CPEvaluator.fitness"),
    Target("core.apply_config", "repro.core.agents", "GatewayAgent.apply_config"),
    Target("master.handle", "repro.core.master", "MasterNode.register"),
    Target("master.handle", "repro.core.master", "MasterNode.release"),
    Target("master.rtt", "repro.core.master_client", "MasterClient.register"),
    Target("master.rtt", "repro.core.master_client", "MasterClient.release"),
)


class Tracer:
    """Records spans ``[name, start, end, parent, thread]`` in memory.

    Spans nest per thread.  A span opened on another thread with nothing
    open there (the Master server's handler) takes the innermost open
    span of the tracer's own thread as its parent: with one client, that
    is the request that caused it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: List[int] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._owner_stack if threading.get_ident() == self._owner else []
            self._local.stack = stack
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent: Optional[int] = stack[-1] if stack else None
        if parent is None and stack is not self._owner_stack:
            try:
                parent = self._owner_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, perf_counter(), None, parent, threading.current_thread().name]
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack().pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if target.count is not None:
                target.count(self.counts, args, result)
            return result

        return traced


def _resolve(target: Target) -> Optional[Tuple[object, str, object]]:
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner: object = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


def install(
    tracer: Tracer, targets: Sequence[Target] = TARGETS
) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every present target; returns (restore, absent targets)."""
    patched: List[Tuple[object, str, object, bool]] = []
    absent: List[str] = []
    for target in targets:
        found = _resolve(target)
        if found is None:
            absent.append(f"{target.module}:{target.attr}")
            continue
        owner, name, original = found
        own = name in vars(owner)
        setattr(owner, name, tracer.wrap(target, original))
        patched.append((owner, name, original, own))

    def restore() -> None:
        for owner, name, original, own in reversed(patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    return restore, absent


# The PerfProbe phases persisted from the traced run.
PHASES = (
    "phy.observe",
    "gw.detect",
    "gw.dispatch",
    "gw.decode",
    "sim.timeline",
    "sim.collect",
    "obs.emit",
)

SELF_LAYERS = (
    "sim.run",
    "sim.observe",
    "gateway.receive",
    "gateway.detect",
    "gateway.dispatch",
    "phy.decode_ok",
    "core.plan",
    "core.build_cp_input",
    "core.evolve",
    "core.fitness",
    "core.apply_config",
    "master.handle",
)

# name -> (unit, better).  Layer times are shares of the traced
# region's wall time, so a layer a workload never enters reads 0 as a
# ratio; absolute seconds are in the trace file.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_share": ("ratio", "lower") for layer in SELF_LAYERS},
    "sim.observe.calls": ("count", "lower"),
    "sim.observe.kept_ratio": ("ratio", "lower"),
    "gateway.detect.calls": ("count", "lower"),
    "gateway.detect.lock_ratio": ("ratio", "higher"),
    "gateway.dispatch.admit_ratio": ("ratio", "higher"),
    "phy.decode_ok.calls": ("count", "lower"),
    "phy.decode_ok.ok_ratio": ("ratio", "higher"),
    "phy.decode_ok.interferers_mean": ("count", "lower"),
    "core.fitness.calls": ("count", "lower"),
    "master.wire_ratio": ("ratio", "lower"),
    "master.rtt_tail_ratio": ("ratio", "lower"),
    **{f"phase.{phase}.items": ("count", "lower") for phase in PHASES},
    **{f"phase.{phase}.share": ("ratio", "lower") for phase in PHASES},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.absent": ("count", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def per_layer_metrics(
    layers: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    spans: Sequence[Sequence],
    phases: Dict[str, Dict[str, float]],
    region_s: float,
    overhead_ratio: float,
    absent: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced region.

    ``phases`` maps a PerfProbe phase to its ``items`` and ``share``.
    """

    def stat(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0.0)

    rtts = [end - start for name, start, end, _p, _t in spans if name == "master.rtt"]
    out: Dict[str, float] = {
        f"{layer}.self_share": _ratio(stat(layer, "self_s"), region_s)
        for layer in SELF_LAYERS
    }
    out.update(
        {
            "sim.observe.calls": stat("sim.observe", "calls"),
            "sim.observe.kept_ratio": _ratio(
                counts.get("sim.observe.kept", 0), counts.get("sim.observe.seen", 0)
            ),
            "gateway.detect.calls": stat("gateway.detect", "calls"),
            "gateway.detect.lock_ratio": _ratio(
                counts.get("gateway.detect.locked", 0), stat("gateway.detect", "calls")
            ),
            "gateway.dispatch.admit_ratio": _ratio(
                counts.get("gateway.dispatch.admitted", 0),
                counts.get("gateway.dispatch.offered", 0),
            ),
            "phy.decode_ok.calls": stat("phy.decode_ok", "calls"),
            "phy.decode_ok.ok_ratio": _ratio(
                counts.get("phy.decode_ok.ok", 0), stat("phy.decode_ok", "calls")
            ),
            "phy.decode_ok.interferers_mean": _ratio(
                counts.get("phy.decode_ok.interferers", 0), stat("phy.decode_ok", "calls")
            ),
            "core.fitness.calls": stat("core.fitness", "calls"),
            # Client round trip not spent in the Master's handler.
            "master.wire_ratio": _ratio(
                stat("master.rtt", "total_s") - stat("master.handle", "total_s"),
                stat("master.rtt", "total_s"),
            ),
            "master.rtt_tail_ratio": _ratio(quantile(rtts, 0.99), quantile(rtts, 0.5)),
            "trace.overhead_ratio": overhead_ratio,
            "trace.absent": float(absent),
        }
    )
    for phase in PHASES:
        entry = phases.get(phase, {})
        out[f"phase.{phase}.items"] = float(entry.get("items", 0))
        out[f"phase.{phase}.share"] = float(entry.get("share", 0.0))
    return out


def _union_s(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_stats(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the union of its children's
    intervals (clipped to the span), so overlapping children from
    another thread are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent, _thread) in enumerate(spans):
        covered = _union_s(
            [
                (max(lo, start), min(hi, end))
                for lo, hi in children.get(index, ())
                if min(hi, end) > max(lo, start)
            ]
        )
        stat = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stat["calls"] += 1
        stat["total_s"] += end - start
        stat["self_s"] += (end - start) - covered
    return out
