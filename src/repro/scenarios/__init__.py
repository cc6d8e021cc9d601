"""Declarative scenario specs: parse, validate, sweep, compile, run.

A scenario file (YAML subset or JSON) describes *what* to simulate —
run kind, region, area, networks, assignment, link, traffic, sweep
axes — and this package turns it into fully seeded deterministic run
configs (:mod:`repro.scenarios.spec`) and executes them
(:mod:`repro.scenarios.compile`).  Campaign orchestration lives in
:mod:`repro.campaign`.

Import discipline: this module must stay importable without pulling in
:mod:`repro.experiments` (which itself imports :func:`area_preset`
from here), so the compiler — whose executors reuse the experiment
drivers — is only loaded on first attribute access.
"""

from __future__ import annotations

from typing import Any

from .spec import (
    RunConfig,
    ScenarioSpec,
    SpecError,
    area_preset,
    canonical_json,
    content_hash,
    deep_merge,
    expand_sweep,
    load_defaults,
    load_spec,
    parse_spec,
    resolve_spec,
)
from .yamlparse import YamlError, dump_yaml, load_yaml, parse_yaml

__all__ = [
    "RunConfig",
    "ScenarioSpec",
    "SpecError",
    "YamlError",
    "area_preset",
    "canonical_json",
    "compile_run",
    "compile_spec",
    "content_hash",
    "deep_merge",
    "dump_yaml",
    "execute_run",
    "expand_sweep",
    "load_defaults",
    "load_spec",
    "load_yaml",
    "parse_spec",
    "parse_yaml",
    "resolve_spec",
]

_COMPILE_EXPORTS = {"compile_run", "compile_spec", "execute_run", "CompiledRun"}


def __getattr__(name: str) -> Any:
    if name in _COMPILE_EXPORTS:
        from . import compile as _compile

        return getattr(_compile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
