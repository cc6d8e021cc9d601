"""Declarative scenario specs: defaults + override-only user files.

A scenario file states only what differs from ``defaults.yaml``; this
module deep-merges it over the defaults, validates every key with a
path-qualified error, expands the ``sweep`` section into a seeded run
grid, and stamps each run with a content-hash run ID.  The resolved
configuration is plain JSON-able data throughout, so run configs cross
process boundaries (the campaign worker pool) without custom pickling.

Determinism contract: the run grid is fully expanded *before* any run
executes, each run's config embeds every seed it needs, and the
content hash is computed over canonical (sorted-key) JSON — the same
spec therefore produces byte-identical run IDs and results regardless
of key order in the file or the parallelism of the runner.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..phy.regions import AS923, EU868, TESTBED_16, TESTBED_48, US915, Band
from .yamlparse import load_yaml, parse_yaml

__all__ = [
    "SpecError",
    "ScenarioSpec",
    "RunConfig",
    "load_defaults",
    "deep_merge",
    "validate_overrides",
    "resolve_spec",
    "load_spec",
    "parse_spec",
    "canonical_json",
    "content_hash",
    "expand_sweep",
    "get_path",
    "set_path",
    "area_preset",
    "BANDS",
]

DEFAULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "defaults.yaml")

# Paths whose sub-structure is free-form (validated downstream, not
# against the defaults tree).
_FREEFORM_PATHS = {"meta", "sweep", "networks.list", "area_presets"}

# Allowed keys of a per-network override entry (``networks.list[k]``).
_NETWORK_ENTRY_KEYS = {
    "gateways",
    "devices",
    "seed_offset",
    "gateway_id_base",
    "node_id_base",
}

_RUN_KINDS = ("capacity", "load", "chaos")

BANDS: Dict[str, Band] = {
    "US915": US915,
    "EU868": EU868,
    "AS923": AS923,
    "TESTBED_48": TESTBED_48,
    "TESTBED_16": TESTBED_16,
}

# The enumerated fields: (path, noun, allowed values).  Every expanded
# run is checked against them, so a typo fails the spec whether it is
# given directly or as a sweep point, before any run executes.
_CHOICES = (
    ("region.band", "band", tuple(sorted(BANDS))),
    ("assignment.kind", "kind", ("orthogonal", "standard")),
    ("assignment.split_channels", "mode", ("none", "contiguous")),
    ("link.kind", "kind", ("lab", "urban")),
)


class SpecError(ValueError):
    """A scenario spec is invalid; the message is path-qualified."""


_defaults_cache: Optional[Dict[str, Any]] = None


def load_defaults() -> Dict[str, Any]:
    """The parsed ``defaults.yaml`` tree (a fresh deep copy)."""
    global _defaults_cache
    if _defaults_cache is None:
        _defaults_cache = load_yaml(DEFAULTS_PATH)
    return copy.deepcopy(_defaults_cache)


def area_preset(name: str) -> Tuple[float, float]:
    """(width_m, height_m) of a named deployment-area preset.

    The presets live in ``defaults.yaml`` — the single source of truth
    the experiment scripts' former per-script constants were hoisted
    into.
    """
    presets = load_defaults()["area_presets"]
    if name not in presets:
        raise SpecError(
            f"area.preset: unknown preset {name!r} "
            f"(expected one of {sorted(presets)} or 'custom')"
        )
    width_m, height_m = presets[name]
    return float(width_m), float(height_m)


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def validate_overrides(
    override: Mapping[str, Any],
    defaults: Mapping[str, Any],
    path: str = "",
) -> None:
    """Reject unknown keys and shape mismatches, path-qualified.

    ``override`` may only mention keys present in ``defaults`` (the
    schema), except under the free-form sections.
    """
    for key, value in override.items():
        here = _join(path, key)
        if key not in defaults:
            hint = ""
            close = difflib.get_close_matches(str(key), [str(k) for k in defaults], 1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise SpecError(f"{here}: unknown key{hint}")
        default_value = defaults[key]
        if here in _FREEFORM_PATHS:
            _validate_freeform(here, value)
            continue
        if isinstance(default_value, Mapping):
            if not isinstance(value, Mapping):
                raise SpecError(
                    f"{here}: expected a mapping, got {type(value).__name__}"
                )
            validate_overrides(value, default_value, here)
        elif isinstance(value, Mapping):
            raise SpecError(
                f"{here}: expected a scalar or list, got a mapping"
            )


def _validate_freeform(path: str, value: Any) -> None:
    if path == "networks.list":
        if value is None:
            return
        if not isinstance(value, list):
            raise SpecError(f"{path}: expected a list of per-network entries")
        for i, entry in enumerate(value):
            if not isinstance(entry, Mapping):
                raise SpecError(f"{path}.{i}: expected a mapping")
            for key in entry:
                if key not in _NETWORK_ENTRY_KEYS:
                    raise SpecError(
                        f"{path}.{i}.{key}: unknown key (allowed: "
                        f"{sorted(_NETWORK_ENTRY_KEYS)})"
                    )
    elif path in ("sweep", "meta"):
        if value is not None and not isinstance(value, Mapping):
            raise SpecError(f"{path}: expected a mapping")


def deep_merge(
    base: Mapping[str, Any], override: Mapping[str, Any]
) -> Dict[str, Any]:
    """Override-only merge: nested mappings merge, everything else replaces."""
    out: Dict[str, Any] = {k: copy.deepcopy(v) for k, v in base.items()}
    for key, value in override.items():
        if (
            key in out
            and isinstance(out[key], Mapping)
            and isinstance(value, Mapping)
        ):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check_enums(resolved: Mapping[str, Any]) -> None:
    run = resolved["run"]
    if run["kind"] not in _RUN_KINDS:
        raise SpecError(
            f"run.kind: unknown kind {run['kind']!r} (expected one of {_RUN_KINDS})"
        )
    preset = resolved["area"]["preset"]
    if preset != "custom" and preset not in resolved["area_presets"]:
        raise SpecError(
            f"area.preset: unknown preset {preset!r} (expected one of "
            f"{sorted(resolved['area_presets'])} or 'custom')"
        )
    if preset == "custom" and (
        resolved["area"]["width_m"] is None or resolved["area"]["height_m"] is None
    ):
        raise SpecError("area: preset 'custom' requires width_m and height_m")


def resolve_spec(user_doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate an override document and merge it over the defaults."""
    if user_doc is None:
        user_doc = {}
    if not isinstance(user_doc, Mapping):
        raise SpecError("spec: top level must be a mapping")
    defaults = load_defaults()
    validate_overrides(user_doc, defaults)
    resolved = deep_merge(defaults, user_doc)
    if resolved.get("sweep") is None:
        resolved["sweep"] = {}
    _check_enums(resolved)
    return resolved


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    )


def content_hash(value: Any, length: int = 16) -> str:
    """blake2b digest of the canonical JSON form (key-order stable)."""
    blob = canonical_json(value).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()[:length]


# -- config paths -----------------------------------------------------------


def _segments(path: str) -> List[Any]:
    out: List[Any] = []
    for seg in path.split("."):
        out.append(int(seg) if seg.lstrip("-").isdigit() else seg)
    return out


def get_path(config: Any, path: str) -> Any:
    """Fetch a dotted path (int segments index lists)."""
    node = config
    for seg in _segments(path):
        try:
            node = node[seg]
        except (KeyError, IndexError, TypeError):
            raise SpecError(f"sweep: {path}: no such config path") from None
    return node


def set_path(config: Any, path: str, value: Any) -> None:
    """Assign a dotted path in place (the path must already exist)."""
    segs = _segments(path)
    node = config
    for seg in segs[:-1]:
        try:
            node = node[seg]
        except (KeyError, IndexError, TypeError):
            raise SpecError(f"sweep: {path}: no such config path") from None
    last = segs[-1]
    try:
        node[last]
    except (KeyError, IndexError, TypeError):
        raise SpecError(f"sweep: {path}: no such config path") from None
    node[last] = value


# -- sweep expansion --------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved, seeded run of a scenario."""

    index: int
    run_id: str
    seed: int
    config: Dict[str, Any]
    overrides: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the result store's ``run`` block)."""
        return {
            "index": self.index,
            "run_id": self.run_id,
            "seed": self.seed,
            "overrides": dict(self.overrides),
        }


def _check_count(path: str, value: Any, least: int) -> None:
    try:
        ok = value is None or int(value) >= least
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise SpecError(f"{path}: expected an integer >= {least} (got {value!r})")


def _check_run(config: Mapping[str, Any]) -> None:
    """Reject enum typos and impossible network shapes in one run."""
    for path, noun, choices in _CHOICES:
        value = get_path(config, path)
        if value not in choices:
            raise SpecError(
                f"{path}: unknown {noun} {value!r} (expected {' | '.join(choices)})"
            )
    networks = config["networks"]
    _check_count("networks.count", networks["count"], 1)
    entries = [("networks", networks)] + [
        (f"networks.list.{i}", entry)
        for i, entry in enumerate(networks.get("list") or [])
    ]
    for path, entry in entries:
        _check_count(f"{path}.gateways", entry.get("gateways"), 1)
        _check_count(f"{path}.devices", entry.get("devices"), 0)


def _sweep_axes(
    sweep: Mapping[str, Any], base: Mapping[str, Any]
) -> List[List[Dict[str, Any]]]:
    """Each axis is a list of {path: value} override points."""
    axes: List[List[Dict[str, Any]]] = []
    for key in sorted(sweep, key=str):
        values = sweep[key]
        if key == "zip":
            if not isinstance(values, Mapping) or not values:
                raise SpecError("sweep.zip: expected a mapping of path -> list")
            paths = sorted(values, key=str)
            lengths = set()
            for path in paths:
                if not isinstance(values[path], list) or not values[path]:
                    raise SpecError(f"sweep.zip.{path}: expected a non-empty list")
                get_path(base, path)
                lengths.add(len(values[path]))
            if len(lengths) != 1:
                raise SpecError(
                    "sweep.zip: all zipped axes must have the same length, got "
                    f"{sorted(lengths)}"
                )
            axes.append(
                [
                    {path: values[path][i] for path in paths}
                    for i in range(lengths.pop())
                ]
            )
            continue
        if not isinstance(values, list) or not values:
            raise SpecError(f"sweep.{key}: expected a non-empty list of values")
        get_path(base, key)
        axes.append([{key: value} for value in values])
    return axes


def expand_sweep(resolved: Mapping[str, Any]) -> List[RunConfig]:
    """Expand the sweep grid into fully seeded run configs.

    Axes multiply in sorted-path order (``zip`` groups advance in
    lockstep as one axis); each run's config is the resolved spec with
    the axis values applied and the ``sweep`` section removed, its seed
    is ``seed + run.seed_stride * index``, and its run ID is a content
    hash of ``{config, index}``.  Every run's config is checked before
    any is returned (:func:`_check_run`).
    """
    base = {k: copy.deepcopy(v) for k, v in resolved.items() if k != "sweep"}
    axes = _sweep_axes(resolved.get("sweep") or {}, base)
    points = itertools.product(*axes) if axes else [()]
    runs: List[RunConfig] = []
    for index, point in enumerate(points):
        config = copy.deepcopy(base)
        overrides: Dict[str, Any] = {}
        for group in point:
            for path, value in group.items():
                set_path(config, path, copy.deepcopy(value))
                overrides[path] = value
        _check_run(config)
        seed = int(config["seed"]) + int(config["run"]["seed_stride"]) * index
        run_digest = content_hash({"config": config, "index": index})
        runs.append(
            RunConfig(
                index=index,
                run_id=f"{index:04d}-{run_digest[:12]}",
                seed=seed,
                config=config,
                overrides=overrides,
            )
        )
    return runs


# -- the spec object --------------------------------------------------------


@dataclass
class ScenarioSpec:
    """A resolved scenario: defaults + overrides, hashed and expandable."""

    resolved: Dict[str, Any]
    source: Optional[str] = None

    @property
    def name(self) -> str:
        """Scenario name (``meta.name``, falling back to the filename)."""
        meta = self.resolved.get("meta") or {}
        name = meta.get("name")
        if name and name != "unnamed":
            return str(name)
        if self.source:
            return os.path.splitext(os.path.basename(self.source))[0]
        return "unnamed"

    @property
    def digest(self) -> str:
        """Content hash of the resolved spec (key-order independent)."""
        return content_hash(self.resolved)

    def runs(self) -> List[RunConfig]:
        """The expanded, seeded run grid."""
        return expand_sweep(self.resolved)


def parse_spec(text: str, filename: str = "<string>") -> ScenarioSpec:
    """Parse and resolve an override-only spec document from text."""
    doc = parse_yaml(text, filename=filename)
    try:
        resolved = resolve_spec(doc if doc is not None else {})
    except SpecError as exc:
        raise SpecError(f"{filename}: {exc}") from None
    return ScenarioSpec(resolved=resolved, source=None if filename == "<string>" else filename)


def load_spec(path: str) -> ScenarioSpec:
    """Load, validate, and resolve a scenario file."""
    with open(path) as fh:
        return parse_spec(fh.read(), filename=path)
