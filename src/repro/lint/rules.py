"""The determinism & invariant rule set (DET/OBS/API/UNIT families).

Each rule encodes one invariant the reproduction's byte-for-byte claims
rest on; DESIGN.md section 9 is the human-readable contract.  Rules are
pure functions from a :class:`~repro.lint.engine.LintContext` to
findings, registered by stable id so suppressions
(``# repro: noqa[RULE-ID]``) survive refactors.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import LintContext, rule
from .findings import Finding
from .program import _canonical

__all__ = [
    "det001_seeded_rng",
    "det002_wall_clock",
    "det003_float_time_equality",
    "obs001_guarded_hooks",
    "obs002_metric_names",
    "api001_public_annotations",
    "unit001_quantity_suffix",
]

# ---------------------------------------------------------------------------
# shared AST helpers


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted module/object paths.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter`` -> ``{"perf_counter": "time.perf_counter"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def _enclosing_functions(
    tree: ast.Module,
) -> Dict[ast.AST, str]:
    """Map every AST node to the name of its innermost enclosing def."""
    owner: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, current: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        for child in ast.iter_child_nodes(node):
            owner[child] = current
            visit(child, current)

    visit(tree, "<module>")
    return owner


def _iter_defs(
    body: Sequence[ast.stmt],
) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Top-level functions/classes and methods: ``(def, owning class)``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            yield node, None
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub, node


def _is_dataclass(node: ast.ClassDef, aliases: Dict[str, str]) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _canonical(target, aliases)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


# ---------------------------------------------------------------------------
# DET001 — all randomness flows from an explicit, derived seed

_GLOBAL_STREAM_EXEMPT = {"Random", "SystemRandom"}
_NUMPY_SEEDED_FACTORIES = {
    "default_rng",
    "RandomState",
    "Generator",
    "SeedSequence",
}


def _seed_argument_ok(call: ast.Call) -> bool:
    """A seeded-RNG constructor must take a non-literal seed expression."""
    if not call.args and not call.keywords:
        return False  # unseeded: follows process entropy
    seed_expr: Optional[ast.expr] = call.args[0] if call.args else None
    if seed_expr is None:
        for kw in call.keywords:
            if kw.arg in (None, "seed", "x"):
                seed_expr = kw.value
                break
    if seed_expr is None:
        return False
    return not isinstance(seed_expr, ast.Constant)


@rule("DET001", "all RNG must derive from an explicit seed expression")
def det001_seeded_rng(ctx: LintContext) -> Iterable[Finding]:
    aliases = _import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical(node.func, aliases)
        if name is None:
            continue
        if name.startswith("random."):
            attr = name.split(".", 1)[1]
            if attr in _GLOBAL_STREAM_EXEMPT:
                if not _seed_argument_ok(node):
                    yield ctx.finding(
                        node,
                        "DET001",
                        f"random.{attr} needs a seed derived from the "
                        "scenario seed, not omitted or a hardcoded literal "
                        "(see faults.plan._stable_stream_seed)",
                    )
            elif "." not in attr:
                yield ctx.finding(
                    node,
                    "DET001",
                    f"call to process-global random.{attr}(); use an "
                    "explicitly seeded random.Random instance instead",
                )
        elif name.startswith("numpy.random."):
            attr = name.split("numpy.random.", 1)[1]
            if attr in _NUMPY_SEEDED_FACTORIES:
                if not _seed_argument_ok(node):
                    yield ctx.finding(
                        node,
                        "DET001",
                        f"numpy.random.{attr} needs a non-literal seed "
                        "derived from the scenario seed",
                    )
            else:
                yield ctx.finding(
                    node,
                    "DET001",
                    f"call to process-global numpy.random.{attr}(); use "
                    "numpy.random.default_rng(seed) instead",
                )


# ---------------------------------------------------------------------------
# DET002 — wall clock only at telemetry sites feeding *_wall_s/*_rtt_s

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# The telemetry allowlist itself — which modules *are* the telemetry
# layer, and which (module path, enclosing def) pairs may read the wall
# clock — is ``LintConfig.wall_clock_modules`` / ``wall_clock_sites``
# (``repro/lint/config.py``) and arrives on the context as
# ``ctx.config``.  Every allowlisted site must store its
# reading only into *_wall_s / *_rtt_s telemetry fields (or use it for
# I/O retry deadlines, never simulated time).  Adding a site is a
# reviewed change to the determinism contract — see DESIGN.md section 9.


@rule("DET002", "wall clock confined to allowlisted telemetry sites")
def det002_wall_clock(ctx: LintContext) -> Iterable[Finding]:
    if ctx.relpath in ctx.config.wall_clock_module_set:
        return
    aliases = _import_aliases(ctx.tree)
    owner = _enclosing_functions(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical(node.func, aliases)
        if name is None:
            continue
        # `from datetime import datetime` then `datetime.now()` resolves
        # to "datetime.datetime.now" through the alias map already.
        if name not in _WALL_CLOCK_CALLS:
            continue
        site = (ctx.relpath, owner.get(node, "<module>"))
        if site in ctx.config.wall_clock_site_set:
            continue
        yield ctx.finding(
            node,
            "DET002",
            f"wall-clock call {name}() outside the telemetry allowlist; "
            "simulation logic must use simulated time, and telemetry "
            "readings may only land in *_wall_s/*_rtt_s fields",
        )


# ---------------------------------------------------------------------------
# DET003 — no exact equality between float simulation times


def _is_seconds_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("_s") and not node.id.endswith("__s")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("_s")
    return False


@rule("DET003", "no ==/!= between float simulation times")
def det003_float_time_equality(ctx: LintContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_seconds_expr(left) or _is_seconds_expr(right):
                yield ctx.finding(
                    node,
                    "DET003",
                    "exact ==/!= between float simulation times; use "
                    "math.isclose or integer ticks",
                )


# ---------------------------------------------------------------------------
# OBS001 — obs runtime hook slots must be None-guarded at every use

_OBS_SLOTS = {"TRACE", "METRICS", "PERF"}
_RUNTIME_MODULE_SUFFIXES = ("obs.runtime", "repro.obs.runtime")


def _runtime_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the ``repro.obs.runtime`` module."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for item in node.names:
                if item.name == "runtime" and module.endswith("obs"):
                    out.add(item.asname or item.name)
                elif module.endswith(_RUNTIME_MODULE_SUFFIXES) and (
                    item.name in _OBS_SLOTS
                ):
                    # handled separately: importing a slot freezes it
                    pass
        elif isinstance(node, ast.Import):
            for item in node.names:
                if item.name.endswith(_RUNTIME_MODULE_SUFFIXES):
                    out.add(item.asname or item.name.split(".")[0])
    return out


def _slot_of(node: ast.expr, runtime_names: Set[str]) -> Optional[str]:
    """``_obs.TRACE``-style slot read -> slot name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in _OBS_SLOTS
        and isinstance(node.value, ast.Name)
        and node.value.id in runtime_names
    ):
        return node.attr
    return None


class _GuardChecker:
    """Flags unguarded uses of variables holding obs hook slots."""

    def __init__(self, ctx: LintContext, runtime_names: Set[str]) -> None:
        self.ctx = ctx
        self.runtime_names = runtime_names
        self.findings: List[Finding] = []

    # -- expression scan --------------------------------------------------

    def scan_expr(self, node: Optional[ast.AST], bound: Set[str], guarded: Set[str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            func = node.func
            # Direct chained use: _obs.TRACE.emit(...)
            if isinstance(func, ast.Attribute) and _slot_of(
                func.value, self.runtime_names
            ):
                slot = _slot_of(func.value, self.runtime_names)
                self.findings.append(
                    self.ctx.finding(
                        node,
                        "OBS001",
                        f"unguarded call through obs slot {slot}; bind it "
                        "to a local and None-check before use",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in bound
                and func.value.id not in guarded
            ):
                self.findings.append(
                    self.ctx.finding(
                        node,
                        "OBS001",
                        f"call on {func.value.id!r} (an obs hook slot) "
                        "outside an `is not None` guard",
                    )
                )
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            acc = set(guarded)
            for value in node.values:
                self.scan_expr(value, bound, acc)
                acc |= self._guards_from_test(value, bound)
            return
        if isinstance(node, ast.IfExp):
            pos = self._guards_from_test(node.test, bound)
            self.scan_expr(node.test, bound, guarded)
            self.scan_expr(node.body, bound, guarded | pos)
            self.scan_expr(node.orelse, bound, guarded)
            return
        for child in ast.iter_child_nodes(node):
            self.scan_expr(child, bound, guarded)

    # -- guard extraction --------------------------------------------------

    def _guards_from_test(
        self, test: ast.expr, bound: Set[str]
    ) -> Set[str]:
        """Variables proven non-None when ``test`` is truthy."""
        out: Set[str] = set()
        if isinstance(test, ast.Name) and test.id in bound:
            out.add(test.id)
        elif isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            if (
                isinstance(op, ast.IsNot)
                and isinstance(left, ast.Name)
                and left.id in bound
                and isinstance(right, ast.Constant)
                and right.value is None
            ):
                out.add(left.id)
        elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                out |= self._guards_from_test(value, bound)
        return out

    def _negative_guards(self, test: ast.expr, bound: Set[str]) -> Set[str]:
        """Variables proven non-None when ``test`` is *falsy* (is None)."""
        out: Set[str] = set()
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            if (
                isinstance(op, ast.Is)
                and isinstance(left, ast.Name)
                and left.id in bound
                and isinstance(right, ast.Constant)
                and right.value is None
            ):
                out.add(left.id)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            out |= self._guards_from_test(test.operand, bound)
        return out

    @staticmethod
    def _diverges(body: Sequence[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    # -- statement scan ----------------------------------------------------

    def check_block(
        self, stmts: Sequence[ast.stmt], bound: Set[str], guarded: Set[str]
    ) -> None:
        bound = set(bound)
        guarded = set(guarded)
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self.scan_expr(stmt.value, bound, guarded)
                slot = _slot_of(stmt.value, self.runtime_names)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if slot is not None:
                            bound.add(target.id)
                            guarded.discard(target.id)
                        else:
                            bound.discard(target.id)
                            guarded.discard(target.id)
            elif isinstance(stmt, ast.If):
                self.scan_expr(stmt.test, bound, guarded)
                pos = self._guards_from_test(stmt.test, bound)
                neg = self._negative_guards(stmt.test, bound)
                self.check_block(stmt.body, bound, guarded | pos)
                self.check_block(stmt.orelse, bound, guarded | neg)
                # `if rec is None: return` guards the rest of the block.
                if neg and self._diverges(stmt.body):
                    guarded |= neg
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.scan_expr(stmt.iter, bound, guarded)
                self.check_block(stmt.body, bound, guarded)
                self.check_block(stmt.orelse, bound, guarded)
            elif isinstance(stmt, ast.While):
                self.scan_expr(stmt.test, bound, guarded)
                pos = self._guards_from_test(stmt.test, bound)
                self.check_block(stmt.body, bound, guarded | pos)
                self.check_block(stmt.orelse, bound, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.scan_expr(item.context_expr, bound, guarded)
                self.check_block(stmt.body, bound, guarded)
            elif isinstance(stmt, ast.Try):
                self.check_block(stmt.body, bound, guarded)
                for handler in stmt.handlers:
                    self.check_block(handler.body, bound, guarded)
                self.check_block(stmt.orelse, bound, guarded)
                self.check_block(stmt.finalbody, bound, guarded)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Fresh scope: slot bindings do not leak in.
                self.check_block(stmt.body, set(), set())
            elif isinstance(stmt, ast.ClassDef):
                self.check_block(stmt.body, set(), set())
            else:
                self.scan_expr(stmt, bound, guarded)


@rule("OBS001", "obs hook slots None-guarded at every call site")
def obs001_guarded_hooks(ctx: LintContext) -> Iterable[Finding]:
    runtime_names = _runtime_aliases(ctx.tree)
    findings: List[Finding] = []
    # Importing a slot value directly freezes the disabled default.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.endswith(_RUNTIME_MODULE_SUFFIXES):
                for item in node.names:
                    if item.name in _OBS_SLOTS:
                        findings.append(
                            ctx.finding(
                                node,
                                "OBS001",
                                f"`from ...runtime import {item.name}` "
                                "freezes the slot at import time; import "
                                "the runtime module and read the "
                                "attribute at call time",
                            )
                        )
    if runtime_names:
        checker = _GuardChecker(ctx, runtime_names)
        checker.check_block(ctx.tree.body, set(), set())
        findings.extend(checker.findings)
    return findings


# ---------------------------------------------------------------------------
# OBS002 — metric/alert names snake_case; families registered consistently

_METRIC_FACTORY_METHODS = {"counter", "gauge", "histogram"}
_ALERT_RULE_CLASSES = {"AlertRule", "repro.obs.health.AlertRule"}
_SNAKE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_arg(
    call: ast.Call, index: int, keyword: str
) -> Optional[ast.expr]:
    """Positional-or-keyword argument of ``call``, or None."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


@rule("OBS002", "metric/alert names snake_case; families registered once")
def obs002_metric_names(ctx: LintContext) -> Iterable[Finding]:
    aliases = _import_aliases(ctx.tree)
    # name -> (kind, help) as first registered within this file.
    families: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _METRIC_FACTORY_METHODS
        ):
            name = _literal_str(_call_arg(node, 0, "name"))
            if name is None:
                continue  # dynamic names checked at run time
            if not _SNAKE_NAME_RE.match(name):
                yield ctx.finding(
                    node,
                    "OBS002",
                    f"metric name {name!r} is not snake_case "
                    "([a-z][a-z0-9_]*)",
                )
            help_ = _literal_str(_call_arg(node, 1, "help_")) or ""
            kind = func.attr
            seen = families.get(name)
            if seen is None:
                families[name] = (kind, help_)
            else:
                seen_kind, seen_help = seen
                if seen_kind != kind:
                    yield ctx.finding(
                        node,
                        "OBS002",
                        f"metric {name!r} re-registered as {kind} "
                        f"(first registered as {seen_kind})",
                    )
                elif help_ and seen_help and help_ != seen_help:
                    yield ctx.finding(
                        node,
                        "OBS002",
                        f"metric {name!r} re-registered with a different "
                        f"help string ({help_!r} vs {seen_help!r})",
                    )
                elif help_ and not seen_help:
                    families[name] = (kind, help_)
        else:
            canon = _canonical(func, aliases)
            if canon is None or canon not in _ALERT_RULE_CLASSES:
                continue
            name = _literal_str(_call_arg(node, 0, "name"))
            if name is not None and not _SNAKE_NAME_RE.match(name):
                yield ctx.finding(
                    node,
                    "OBS002",
                    f"alert rule name {name!r} is not snake_case "
                    "([a-z][a-z0-9_]*)",
                )


# ---------------------------------------------------------------------------
# API001 — public functions and dataclasses carry type annotations


def _is_public_def(
    fn: ast.AST, owner: Optional[ast.ClassDef]
) -> bool:
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    name = fn.name
    if owner is not None and owner.name.startswith("_"):
        return False
    if name.startswith("__") and name.endswith("__"):
        return owner is not None  # dunder methods of public classes
    return not name.startswith("_")


def _unannotated_args(
    fn: ast.AST, is_method: bool
) -> Iterator[str]:
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    for index, arg in enumerate(positional):
        if is_method and index == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            yield arg.arg
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            yield arg.arg
    if args.vararg is not None and args.vararg.annotation is None:
        yield f"*{args.vararg.arg}"
    if args.kwarg is not None and args.kwarg.annotation is None:
        yield f"**{args.kwarg.arg}"


@rule("API001", "public functions/dataclasses fully type-annotated")
def api001_public_annotations(ctx: LintContext) -> Iterable[Finding]:
    aliases = _import_aliases(ctx.tree)
    for node, owner in _iter_defs(ctx.tree.body):
        if isinstance(node, ast.ClassDef):
            if node.name.startswith("_") or not _is_dataclass(node, aliases):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = [
                        t.id
                        for t in stmt.targets
                        if isinstance(t, ast.Name) and not t.id.startswith("_")
                    ]
                    for name in targets:
                        yield ctx.finding(
                            stmt,
                            "API001",
                            f"unannotated class attribute {name!r} in "
                            f"dataclass {node.name}; annotate it (or mark "
                            "ClassVar) so it is a typed field",
                        )
            continue
        if not _is_public_def(node, owner):
            continue
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qual = f"{owner.name}.{node.name}" if owner else node.name
        missing = list(_unannotated_args(node, is_method=owner is not None))
        if missing:
            yield ctx.finding(
                node,
                "API001",
                f"public function {qual} missing parameter annotations: "
                + ", ".join(missing),
            )
        if node.returns is None:
            yield ctx.finding(
                node,
                "API001",
                f"public function {qual} missing a return annotation",
            )


# ---------------------------------------------------------------------------
# UNIT001 — physical-quantity fields carry unit suffixes

_QUANTITY_STEMS = (
    "time",
    "duration",
    "delay",
    "latency",
    "timeout",
    "deadline",
    "interval",
    "period",
    "airtime",
    "backoff",
    "jitter",
    "freq",
    "frequency",
    "bandwidth",
    "power",
    "rssi",
    "snr",
    "noise",
    "gain",
    "sensitivity",
    "distance",
    "radius",
    "height",
    "altitude",
)

_UNIT_SUFFIXES = (
    "_s",
    "_ms",
    "_us",
    "_ns",
    "_hz",
    "_khz",
    "_mhz",
    "_ghz",
    "_dbm",
    "_db",
    "_dbi",
    "_m",
    "_km",
    "_bps",
    "_sps",
    "_ppm",
    "_bytes",
    "_symbols",
)

# A trailing kind-token marks a dimensionless field (an index, a count,
# a fraction): `tx_power_index` is not a power and needs no dBm suffix.
_DIMENSIONLESS_KINDS = (
    "index",
    "idx",
    "count",
    "frac",
    "fraction",
    "ratio",
    "factor",
    "multiplier",
    "prob",
    "probability",
)

_NUMERIC_ANNOTATIONS = {
    "float",
    "int",
    "Optional[float]",
    "Optional[int]",
    "float | None",
    "int | None",
    "None | float",
    "None | int",
}


def _annotation_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed code
        return ""


def _names_quantity(name: str) -> bool:
    tokens = name.lower().split("_")
    if tokens and tokens[-1] in _DIMENSIONLESS_KINDS:
        return False
    return any(stem in tokens for stem in _QUANTITY_STEMS)


@rule("UNIT001", "physical-quantity dataclass fields carry unit suffixes")
def unit001_quantity_suffix(ctx: LintContext) -> Iterable[Finding]:
    aliases = _import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_dataclass(node, aliases):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            name = stmt.target.id
            if name.startswith("_"):
                continue
            annotation = _annotation_text(stmt.annotation).replace(" ", "")
            if annotation not in {
                a.replace(" ", "") for a in _NUMERIC_ANNOTATIONS
            }:
                continue
            if not _names_quantity(name):
                continue
            if name.endswith(_UNIT_SUFFIXES):
                continue
            yield ctx.finding(
                stmt,
                "UNIT001",
                f"field {node.name}.{name} looks like a physical quantity "
                "but has no unit suffix (_s, _hz, _dbm, _db, _m, ...)",
            )
