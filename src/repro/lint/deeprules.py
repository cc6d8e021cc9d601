"""Whole-program analysis passes: purity, lock discipline, hot loops.

These rules run only under ``repro.tools lint --deep``: they need the
:class:`~repro.lint.program.ProgramIndex` (symbol table + call graph)
rather than a single file's AST, so they live in their own registry
(:data:`DEEP_RULES`) and never fire during the per-file pass.

The three analyses (DESIGN.md section 9 has the full contracts):

* **DET010 transitive purity** — from the configured ``pure_roots``
  (the simulation event loop, the gateway pipeline, phy interference),
  report every call path that reaches a wall-clock read, unseeded RNG,
  filesystem, or environment access.  The DET002 telemetry allowlist
  doubles as the traversal boundary: an allowlisted function is
  reachable but not descended into.
* **RACE001/RACE002 lock discipline** — for each class holding a
  ``threading.Lock``/``RLock`` attribute, infer which attributes that
  lock guards from ``with self._lock:`` regions (or ``acquire()`` and a
  ``try`` whose ``finally`` releases it), then flag mutations
  outside the guard (RACE001) and calls made while holding a lock into
  functions that themselves acquire locks (RACE002; re-entrant
  same-RLock acquisition is exempt, same-plain-Lock is a deadlock).
  A mutation is "guarded" if the lock is held lexically *or* on every
  call path into the function (interprocedural must-hold fixpoint), so
  private helpers called only under the lock stay clean.
* **PERF001/PERF002 hot-loop hygiene** — inside functions reachable
  from the pure roots, flag per-iteration allocation patterns
  (``dataclasses.replace``, self-rebuilding comprehensions, closures
  defined in the loop) and deep attribute chains read repeatedly in one
  loop (hoist into a local).

Suppression: findings honor ``# repro: noqa[ID]`` at the *definition
site* (the flagged line, which silences every call path through it);
DET010 additionally honors a noqa on the root's *call site* of the
chain's first hop, which silences only chains entering through that
edge.  Definition-site suppression therefore wins — it is strictly
broader.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .config import DEFAULT_CONFIG, LintConfig
from .engine import LintReport, is_suppressed
from .findings import Finding
from .program import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ProgramIndex,
    _canonical,
    build_program,
)
from .rules import (
    _GLOBAL_STREAM_EXEMPT,
    _NUMPY_SEEDED_FACTORIES,
    _WALL_CLOCK_CALLS,
    _seed_argument_ok,
)

__all__ = ["DeepRule", "DEEP_RULES", "deep_rule", "run_deep"]

DeepRuleFn = Callable[[ProgramIndex, LintConfig], Iterable[Finding]]


@dataclass(frozen=True)
class DeepRule:
    """A registered whole-program rule."""

    rule_id: str
    summary: str
    fn: DeepRuleFn


# rule id -> DeepRule, in registration order (separate from the
# per-file RULES registry: these need a ProgramIndex, not a file).
DEEP_RULES: Dict[str, DeepRule] = {}


def deep_rule(
    rule_id: str, summary: str
) -> Callable[[DeepRuleFn], DeepRuleFn]:
    """Register ``fn`` as the implementation of deep rule ``rule_id``."""

    def decorate(fn: DeepRuleFn) -> DeepRuleFn:
        if rule_id in DEEP_RULES:
            raise ValueError(f"duplicate deep rule id {rule_id!r}")
        DEEP_RULES[rule_id] = DeepRule(
            rule_id=rule_id, summary=summary, fn=fn
        )
        return fn

    return decorate


def _finding(fn: FunctionInfo, node: ast.AST, rule_id: str, message: str) -> Finding:
    line = getattr(node, "lineno", fn.lineno)
    return Finding(
        path=fn.relpath,
        line=line,
        col=getattr(node, "col_offset", 0),
        rule_id=rule_id,
        message=message,
        end_line=getattr(node, "end_lineno", None) or line,
    )


def _display(qualname: str) -> str:
    """Compact display form of a function qualname for chain rendering."""
    return qualname[len("repro.") :] if qualname.startswith("repro.") else qualname


def _is_boundary(fn: FunctionInfo, config: LintConfig) -> bool:
    """Telemetry functions: reachable, but purity analysis stops here."""
    return (
        fn.relpath in config.wall_clock_module_set
        or (fn.relpath, fn.name) in config.wall_clock_site_set
    )


# ---------------------------------------------------------------------------
# DET010 — transitive purity from the configured roots

_RNG_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}
_FS_CALLS = {
    "open",
    "os.open",
    "os.remove",
    "os.unlink",
    "os.rename",
    "os.replace",
    "os.mkdir",
    "os.makedirs",
    "os.rmdir",
    "os.removedirs",
    "os.listdir",
    "os.scandir",
    "os.stat",
    "os.walk",
    "os.fsync",
    "os.path.exists",
    "os.path.isfile",
    "os.path.isdir",
    "os.path.getmtime",
    "os.path.getsize",
}
_FS_PREFIXES = ("shutil.", "tempfile.", "glob.")
_ENV_CALLS = {
    "os.getenv",
    "os.putenv",
    "os.unsetenv",
    "os.environ.get",
    "os.environ.setdefault",
    "os.environ.pop",
    "os.environ.update",
    "os.environ.copy",
}


def _classify_impure(
    callee: str, call: ast.Call
) -> Optional[Tuple[str, str]]:
    """``(category, detail)`` when a canonical callee is impure."""
    if callee in _WALL_CLOCK_CALLS:
        return ("wall-clock", f"{callee}()")
    if callee in _RNG_CALLS or callee.startswith("secrets."):
        return ("unseeded RNG", f"{callee}()")
    if callee.startswith("random."):
        attr = callee.split(".", 1)[1]
        if attr in _GLOBAL_STREAM_EXEMPT:
            if not _seed_argument_ok(call):
                return ("unseeded RNG", f"{callee}() without a derived seed")
            return None
        if "." not in attr:
            return ("unseeded RNG", f"process-global {callee}()")
        return None
    if callee.startswith("numpy.random."):
        attr = callee.split("numpy.random.", 1)[1]
        if attr in _NUMPY_SEEDED_FACTORIES:
            if not _seed_argument_ok(call):
                return ("unseeded RNG", f"{callee}() without a derived seed")
            return None
        return ("unseeded RNG", f"process-global {callee}()")
    if callee in _FS_CALLS or callee.startswith(_FS_PREFIXES):
        return ("filesystem", f"{callee}()")
    if callee in _ENV_CALLS:
        return ("environment", f"{callee}()")
    return None


@deep_rule(
    "DET010",
    "no call path from a pure root reaches wall-clock/RNG/fs/env access",
)
def det010_transitive_purity(
    index: ProgramIndex, config: LintConfig
) -> Iterable[Finding]:
    yield from _unresolved_roots(index, config)
    # One BFS per root (rather than one merged walk) so that every
    # root's chain to a shared callee survives: a call-site noqa on one
    # root's edge must not hide the chain arriving from another root.
    reached: Dict[str, List[Tuple[str, ...]]] = {}
    for root in config.pure_roots:
        chains = index.reachable_chains(
            [root], stop=lambda fn: _is_boundary(fn, config)
        )
        for qualname, chain in chains.items():
            reached.setdefault(qualname, []).append(chain)
    for qualname in sorted(reached):
        fn = index.functions[qualname]
        chains_here = reached[qualname]
        # Boundary functions are where telemetry legitimately reads the
        # clock; their bodies are outside the purity contract (unless
        # the boundary is itself a configured root).
        if _is_boundary(fn, config) and not any(
            len(chain) == 1 for chain in chains_here
        ):
            continue
        viable = [
            chain
            for chain in chains_here
            if not _first_hop_suppressed(index, chain, "DET010")
        ]
        if not viable:
            continue
        chain = viable[0]
        for call in fn.calls:
            if call.callee is None:
                continue
            impure = _classify_impure(call.callee, call.node)
            if impure is None:
                continue
            category, detail = impure
            rendered = " -> ".join(_display(q) for q in chain)
            yield _finding(
                fn,
                call.node,
                "DET010",
                f"impure {category} access {detail} reachable from pure "
                f"root {_display(chain[0])} via {rendered}",
            )


def _unresolved_roots(
    index: ProgramIndex, config: LintConfig
) -> Iterable[Finding]:
    """Configured roots naming no function of a module being linted.

    The traversal skips a root it cannot find, so a renamed or deleted
    root would otherwise drop out of DET010 and PERF001/PERF002 without
    a word.  A root is ``module.function`` or ``module.Class.method``;
    the finding sits on the module's first line.  A root whose module
    is not part of the linted tree is left alone, as is
    ``package.name.function`` when the package has no class ``name``
    (``name`` may be a module outside the tree).
    """
    modules = {info.module: info for info in index.modules.values()}
    for root in config.pure_roots:
        if root in index.functions:
            continue
        owner = root.rpartition(".")[0]
        module = modules.get(owner)
        if module is None:
            module = modules.get(owner.rpartition(".")[0])
            if module is None or (
                module.relpath.endswith("__init__.py")
                and owner not in index.classes
            ):
                continue
        yield Finding(
            path=module.relpath,
            line=1,
            col=0,
            rule_id="DET010",
            message=(
                f"configured pure root {_display(root)} names no function "
                f"in {_display(module.module)}; DET010 and PERF001/PERF002 "
                "cannot start from it"
            ),
        )


def _first_hop_suppressed(
    index: ProgramIndex, chain: Tuple[str, ...], rule_id: str
) -> bool:
    """Whether a root-side call-site noqa covers this chain's first hop."""
    if len(chain) < 2:
        return False
    root = index.functions[chain[0]]
    suppressions = index.module_of(root).suppressions
    for call in root.calls:
        if chain[1] not in call.targets:
            continue
        for line in range(call.line, call.end_line + 1):
            if rule_id in suppressions.get(line, ()):
                return True
    return False


# ---------------------------------------------------------------------------
# RACE001/RACE002 — lock-discipline inference

_LOCK_CONSTRUCTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "rlock",
}

# Calls on an attribute's value that mutate it in place.
_MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}

_INIT_METHODS = {"__init__", "__new__", "__post_init__"}


@dataclass
class _Mutation:
    attr: str
    node: ast.AST
    held: FrozenSet[str]


@dataclass
class _HeldCall:
    call: CallSite
    held: FrozenSet[str]


@dataclass
class _FunctionLockFacts:
    """Per-function lexical lock facts feeding the module analysis."""

    fn: FunctionInfo
    class_qual: Optional[str]
    mutations: List[_Mutation] = field(default_factory=list)
    calls: List[_HeldCall] = field(default_factory=list)
    acquires: Set[str] = field(default_factory=set)  # lexical acquisitions


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (one level only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _released_self_attr(stmt: ast.stmt) -> Optional[str]:
    """``self.X.release()`` as a statement -> ``X``."""
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr == "release"
    ):
        return _self_attr(stmt.value.func.value)
    return None


def _mutated_self_attr(target: ast.AST) -> Optional[str]:
    """The ``self`` attribute a store-target mutates, if any."""
    attr = _self_attr(target)
    if attr is not None:
        return attr
    if isinstance(target, ast.Subscript):
        return _self_attr(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            found = _mutated_self_attr(elt)
            if found is not None:
                return found
    return None


def _class_locks(
    index: ProgramIndex, cls: ClassInfo
) -> Dict[str, str]:
    """Lock attributes of a class: attr name -> 'lock' | 'rlock'."""
    locks: Dict[str, str] = {}
    for qualname in cls.methods.values():
        fn = index.functions.get(qualname)
        if fn is None:
            continue
        aliases = index.module_of(fn).aliases
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = _canonical(node.value.func, aliases)
            kind = _LOCK_CONSTRUCTORS.get(callee or "")
            if kind is None:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks[attr] = kind
    return locks


def _collect_lock_facts(
    index: ProgramIndex,
    fn: FunctionInfo,
    lock_tokens: Dict[str, str],
) -> _FunctionLockFacts:
    """Walk one function, tracking which locks are lexically held.

    ``lock_tokens`` maps ``self`` attribute names to global lock tokens
    (``Class.qualname.attr``) for the function's own class.
    """
    cls = index.class_of(fn)
    facts = _FunctionLockFacts(
        fn=fn, class_qual=cls.qualname if cls else None
    )
    calls_by_id = {id(c.node): c for c in fn.calls}

    def walk(node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                walk_expr(item.context_expr, held)
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in lock_tokens:
                    acquired.add(lock_tokens[attr])
            facts.acquires.update(acquired)
            inner = held | frozenset(acquired)
            for stmt in node.body:
                walk(stmt, inner)
            return
        if isinstance(node, ast.Try) and node.finalbody:
            # ``self._lock.acquire()`` then ``try: ... finally:
            # self._lock.release()`` holds the lock like ``with`` does.
            released = frozenset(
                lock_tokens[attr]
                for attr in map(_released_self_attr, node.finalbody)
                if attr is not None and attr in lock_tokens
            )
            inner = held | released
            for child in (*node.body, *node.handlers, *node.orelse):
                walk(child, inner)
            for stmt in node.finalbody:
                walk(stmt, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: body runs when called, not here; treat its
            # lock context as unknown (empty) rather than inheriting.
            for stmt in node.body:
                walk(stmt, frozenset())
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                attr = _mutated_self_attr(target)
                if attr is not None:
                    facts.mutations.append(
                        _Mutation(attr=attr, node=node, held=held)
                    )
            value = getattr(node, "value", None)
            if value is not None:
                walk_expr(value, held)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                walk_expr(child, held)
            else:
                walk(child, held)

    def walk_expr(node: ast.AST, held: FrozenSet[str]) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            site = calls_by_id.get(id(sub))
            if site is not None:
                facts.calls.append(_HeldCall(call=site, held=held))
            func = sub.func
            if isinstance(func, ast.Attribute):
                owner = _self_attr(func.value)
                if owner is not None:
                    if (
                        func.attr == "acquire"
                        and owner in lock_tokens
                    ):
                        facts.acquires.add(lock_tokens[owner])
                    elif func.attr in _MUTATOR_METHODS:
                        facts.mutations.append(
                            _Mutation(attr=owner, node=sub, held=held)
                        )

    for stmt in fn.node.body:  # type: ignore[attr-defined]
        walk(stmt, frozenset())
    return facts


def _must_hold_fixpoint(
    facts_by_fn: Dict[str, _FunctionLockFacts],
) -> Dict[str, FrozenSet[str]]:
    """Locks provably held on *every* call path into each function.

    Standard must-analysis: functions with no known project callers
    start (and stay) at the empty set — they may be entered lock-free;
    called functions start at TOP (None) and meet, over every call
    site, the locks lexically held there plus the caller's own
    must-held set.
    """
    callers: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for facts in facts_by_fn.values():
        for held_call in facts.calls:
            for target in held_call.call.targets:
                if target in facts_by_fn:
                    callers.setdefault(target, []).append(
                        (facts.fn.qualname, held_call.held)
                    )
    result: Dict[str, Optional[FrozenSet[str]]] = {
        name: (None if name in callers else frozenset())
        for name in facts_by_fn
    }
    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for name, edges in callers.items():
            met: Optional[FrozenSet[str]] = None
            for caller, held in edges:
                caller_held = result.get(caller) or frozenset()
                path_held = held | caller_held
                met = path_held if met is None else (met & path_held)
            if met is not None and met != result[name]:
                result[name] = met
                changed = True
    return {
        name: (value or frozenset()) for name, value in result.items()
    }


def _module_lock_tokens(
    index: ProgramIndex,
) -> Tuple[Dict[str, Dict[str, str]], Dict[str, str]]:
    """Per-class lock maps and the token->kind table.

    Returns ``({class qualname: {attr: token}}, {token: kind})``.
    """
    per_class: Dict[str, Dict[str, str]] = {}
    kinds: Dict[str, str] = {}
    for cls in index.classes.values():
        locks = _class_locks(index, cls)
        if not locks:
            continue
        tokens = {
            attr: f"{cls.qualname}.{attr}" for attr in locks
        }
        per_class[cls.qualname] = tokens
        for attr, kind in locks.items():
            kinds[tokens[attr]] = kind
    return per_class, kinds


def _collect_all_lock_facts(
    index: ProgramIndex,
    per_class: Dict[str, Dict[str, str]],
) -> Dict[str, _FunctionLockFacts]:
    facts: Dict[str, _FunctionLockFacts] = {}
    for fn in index.functions.values():
        cls = index.class_of(fn)
        tokens = per_class.get(cls.qualname, {}) if cls else {}
        facts[fn.qualname] = _collect_lock_facts(index, fn, tokens)
    return facts


@deep_rule(
    "RACE001",
    "attributes guarded by an inferred lock never mutated outside it",
)
def race001_guard_discipline(
    index: ProgramIndex, config: LintConfig
) -> Iterable[Finding]:
    per_class, _kinds = _module_lock_tokens(index)
    if not per_class:
        return
    facts_by_fn = _collect_all_lock_facts(index, per_class)
    must_hold = _must_hold_fixpoint(facts_by_fn)

    for class_qual, tokens in sorted(per_class.items()):
        cls = index.classes[class_qual]
        lock_attr_names = set(tokens)
        # attr -> {lock token} observed guarding a mutation; attr ->
        # [(facts, mutation, effective held)] for the audit pass.
        guarded_by: Dict[str, Set[str]] = {}
        mutations: List[Tuple[_FunctionLockFacts, _Mutation, FrozenSet[str]]] = []
        for qualname in cls.methods.values():
            facts = facts_by_fn.get(qualname)
            if facts is None:
                continue
            effective_base = must_hold.get(qualname, frozenset())
            for mut in facts.mutations:
                if mut.attr in lock_attr_names:
                    continue  # assigning the lock itself
                effective = mut.held | effective_base
                mutations.append((facts, mut, effective))
                held_own = {
                    t for t in effective if t in set(tokens.values())
                }
                if held_own and facts.fn.name not in _INIT_METHODS:
                    guarded_by.setdefault(mut.attr, set()).update(
                        held_own
                    )
        for facts, mut, effective in mutations:
            guards = guarded_by.get(mut.attr, set())
            if len(guards) != 1:
                # Never locked (no inferred guard) or ambiguously
                # locked (two different locks: a design smell, but not
                # this rule's claim).
                continue
            (guard,) = guards
            if guard in effective:
                continue
            if facts.fn.name in _INIT_METHODS:
                continue  # construction happens-before publication
            lock_display = guard.rsplit(".", 1)[-1]
            yield _finding(
                facts.fn,
                mut.node,
                "RACE001",
                f"attribute self.{mut.attr} of {cls.name} is mutated "
                f"under self.{lock_display} elsewhere but mutated here "
                "without holding it (lexically or on every call path)",
            )


@deep_rule(
    "RACE002",
    "no call under a held lock into a function that acquires locks",
)
def race002_nested_acquisition(
    index: ProgramIndex, config: LintConfig
) -> Iterable[Finding]:
    per_class, kinds = _module_lock_tokens(index)
    if not per_class:
        return
    facts_by_fn = _collect_all_lock_facts(index, per_class)

    for qualname in sorted(facts_by_fn):
        facts = facts_by_fn[qualname]
        for held_call in facts.calls:
            if not held_call.held:
                continue
            for target in held_call.call.targets:
                target_facts = facts_by_fn.get(target)
                if target_facts is None or not target_facts.acquires:
                    continue
                for acquired in sorted(target_facts.acquires):
                    if acquired in held_call.held:
                        if kinds.get(acquired) == "rlock":
                            continue  # re-entrant by design
                        message = (
                            f"{_display(target)} re-acquires "
                            f"{acquired.rsplit('.', 1)[-1]} already held "
                            f"at this call site (non-reentrant Lock: "
                            "self-deadlock)"
                        )
                    else:
                        message = (
                            f"call into {_display(target)} acquires "
                            f"{acquired.rsplit('.', 1)[-1]} while "
                            f"{', '.join(t.rsplit('.', 1)[-1] for t in sorted(held_call.held))} "
                            "is held (lock-ordering hazard)"
                        )
                    yield _finding(
                        facts.fn,
                        held_call.call.node,
                        "RACE002",
                        message,
                    )


# ---------------------------------------------------------------------------
# PERF001/PERF002 — hot-loop hygiene in root-reachable functions


def _hot_functions(
    index: ProgramIndex, config: LintConfig
) -> List[FunctionInfo]:
    chains = index.reachable_chains(
        list(config.pure_roots),
        stop=lambda fn: _is_boundary(fn, config),
    )
    out = []
    for qualname in sorted(chains):
        fn = index.functions[qualname]
        if _is_boundary(fn, config) and len(chains[qualname]) > 1:
            continue
        out.append(fn)
    return out


def _loops_of(fn: FunctionInfo) -> List[ast.AST]:
    return [
        node
        for node in ast.walk(fn.node)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    ]


def _loop_body_nodes(loop: ast.AST) -> Iterable[ast.AST]:
    for stmt in getattr(loop, "body", []):
        yield from ast.walk(stmt)


def _names_in(node: ast.AST) -> Set[str]:
    return {
        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
    }


@deep_rule(
    "PERF001",
    "no per-iteration allocation patterns in root-reachable loops",
)
def perf001_loop_allocation(
    index: ProgramIndex, config: LintConfig
) -> Iterable[Finding]:
    for fn in _hot_functions(index, config):
        aliases = index.module_of(fn).aliases
        for loop in _loops_of(fn):
            inner_loops = [
                n for n in _loop_body_nodes(loop)
                if isinstance(n, (ast.For, ast.AsyncFor, ast.While))
            ]
            skip = {
                id(n)
                for inner in inner_loops
                for n in ast.walk(inner)
                if n is not inner
            }
            for node in _loop_body_nodes(loop):
                if id(node) in skip:
                    continue  # reported against the innermost loop
                if isinstance(node, ast.Call):
                    callee = _canonical(node.func, aliases)
                    if callee in ("dataclasses.replace", "copy.deepcopy"):
                        yield _finding(
                            fn,
                            node,
                            "PERF001",
                            f"{callee}() allocates a fresh object every "
                            f"iteration of a hot loop in "
                            f"{_display(fn.qualname)}; restructure to "
                            "mutate in place or batch outside the loop",
                        )
                elif isinstance(node, (ast.Lambda, ast.FunctionDef)):
                    yield _finding(
                        fn,
                        node,
                        "PERF001",
                        "closure created per iteration of a hot loop in "
                        f"{_display(fn.qualname)}; define it once "
                        "outside the loop",
                    )
                elif isinstance(node, ast.Assign):
                    value = node.value
                    if not isinstance(
                        value,
                        (ast.ListComp, ast.SetComp, ast.DictComp),
                    ):
                        continue
                    target_names = set()
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            target_names.add(target.id)
                    iter_names: Set[str] = set()
                    for gen in value.generators:
                        iter_names |= _names_in(gen.iter)
                    rebuilt = target_names & iter_names
                    if rebuilt:
                        name = sorted(rebuilt)[0]
                        yield _finding(
                            fn,
                            node,
                            "PERF001",
                            f"{name!r} is rebuilt from itself by a "
                            "comprehension every iteration of a hot "
                            f"loop in {_display(fn.qualname)}; compact "
                            "amortized (in place, past a threshold) "
                            "instead",
                        )


def _chain_text(node: ast.Attribute) -> Optional[Tuple[str, str, int]]:
    """``(full chain text, base name, attribute depth)`` for a chain."""
    parts: List[str] = []
    cur: ast.AST = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return ".".join(parts), parts[0], len(parts) - 1


@deep_rule(
    "PERF002",
    "no repeated deep attribute chains inside root-reachable loops",
)
def perf002_repeated_chains(
    index: ProgramIndex, config: LintConfig
) -> Iterable[Finding]:
    for fn in _hot_functions(index, config):
        for loop in _loops_of(fn):
            body_nodes = list(_loop_body_nodes(loop))
            attr_parents: Set[int] = set()
            call_funcs: Set[int] = set()
            rebound: Set[str] = set()
            attr_stores: Set[str] = set()
            for node in body_nodes:
                if isinstance(node, ast.Attribute):
                    if isinstance(node.value, ast.Attribute):
                        attr_parents.add(id(node.value))
                elif isinstance(node, ast.Call):
                    call_funcs.add(id(node.func))
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            rebound.add(target.id)
                        elif isinstance(target, ast.Attribute):
                            text = _chain_text(target)
                            if text is not None:
                                attr_stores.add(text[0])
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    rebound |= _names_in(node.target)
            # Maximal Load-context chains with >= 2 attribute links,
            # excluding chains used directly as a call's function (the
            # bound method itself is not hoistable data).
            occurrences: Dict[str, List[ast.Attribute]] = {}
            for node in body_nodes:
                if not isinstance(node, ast.Attribute):
                    continue
                if id(node) in attr_parents or id(node) in call_funcs:
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                info = _chain_text(node)
                if info is None:
                    continue
                text, base, depth = info
                if depth < 2 or base in rebound:
                    continue
                # A chain whose prefix is written in this loop is not
                # loop-invariant.
                if any(text.startswith(s) for s in attr_stores):
                    continue
                occurrences.setdefault(text, []).append(node)
            for text in sorted(occurrences):
                nodes = occurrences[text]
                if len(nodes) < 2:
                    continue
                first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
                yield _finding(
                    fn,
                    first,
                    "PERF002",
                    f"attribute chain {text} read {len(nodes)} times in "
                    f"one hot-loop iteration in {_display(fn.qualname)}; "
                    "hoist it into a local",
                )


# ---------------------------------------------------------------------------
# driver


def run_deep(
    paths: Sequence[str],
    root: Optional[str] = None,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[DeepRule]] = None,
    report_only: Optional[Set[str]] = None,
) -> LintReport:
    """Run every deep rule over the program rooted at ``paths``.

    ``config`` defaults to this tree's
    :data:`~repro.lint.config.DEFAULT_CONFIG`.  ``report_only``
    (repo-relative paths) restricts *reporting* — the program index
    still spans all of ``paths`` so cross-module facts stay sound —
    used by ``lint --deep --changed``.
    """
    index = build_program(paths, root=root)
    report = LintReport(files_checked=len(index.modules))
    report.parse_errors.extend(index.parse_errors)
    selected = list(DEEP_RULES.values()) if rules is None else list(rules)
    for deep in selected:
        for finding in deep.fn(index, config):
            if report_only is not None and finding.path not in report_only:
                continue
            module = index.modules.get(finding.path)
            suppressions = module.suppressions if module else {}
            if is_suppressed(finding, suppressions):
                report.suppressed += 1
                continue
            report.findings.append(finding)
    report.findings.sort()
    return report
