"""Causal trace context: Dapper-style span propagation, determinised.

A :class:`TraceContext` names one causal scope of a distributed run:

* ``run_id``    — the logical run (drill id, ...).
* ``trace_id``  — constant across every process, socket hop, and
  crash/restart incarnation of one run; the key that joins their
  events.
* ``span_id``   — this process/scope's node in the causal tree.
* ``parent_span_id`` — the minting scope (``None`` at the root).
* ``lam``       — Lamport clock sample at the last hand-off.

Unlike wall-clock tracing systems, identifiers are **derived, not
random**: ``trace_id`` and ``span_id`` are SHA-256 prefixes of their
parent path, so the same seed and topology mint byte-identical ids in
every run — traces stay diffable and a regress gate can demand
byte-equality.

Wire form (the optional ``ctx`` key of Master protocol messages and the
``ctx`` manifest entry of a trace)::

    {"run": "...", "trace": "...", "span": "...", "parent": "...", "lam": 7}

Consumers tolerate the key being absent (old peers) or malformed
(:func:`TraceContext.from_wire` returns ``None`` rather than raising).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

__all__ = ["TraceContext", "derive_id"]

# Hex digits kept from the SHA-256 digest; 64 bits of id space is ample
# for the tens of thousands of spans a long run mints.
_ID_HEX = 16


def derive_id(*parts: Any) -> str:
    """Deterministic identifier from the joined ``parts``.

    The same parts always give the same id, in any process — the
    property the merge determinism gate relies on.
    """
    material = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(material.encode()).hexdigest()[:_ID_HEX]


@dataclass(frozen=True)
class TraceContext:
    """One node of the causal tree (immutable; derive children instead)."""

    run_id: str
    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None
    lam: int = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def root(cls, run_id: str, seed: int = 0) -> "TraceContext":
        """Mint the root context of a run (no parent span)."""
        trace_id = derive_id("trace", run_id, seed)
        span_id = derive_id("span", trace_id, "root")
        return cls(run_id=run_id, trace_id=trace_id, span_id=span_id)

    def child(self, name: str) -> "TraceContext":
        """A child scope named ``name`` (worker id, epoch label, ...)."""
        return replace(
            self,
            span_id=derive_id("span", self.trace_id, self.span_id, name),
            parent_span_id=self.span_id,
        )

    def with_lam(self, lam: int) -> "TraceContext":
        """The same scope with an updated Lamport sample."""
        return replace(self, lam=lam)

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """Compact dict for protocol messages and trace manifests."""
        wire: Dict[str, Any] = {
            "run": self.run_id,
            "trace": self.trace_id,
            "span": self.span_id,
            "lam": self.lam,
        }
        if self.parent_span_id is not None:
            wire["parent"] = self.parent_span_id
        return wire

    @classmethod
    def from_wire(cls, wire: Any) -> Optional["TraceContext"]:
        """Parse a wire dict; ``None`` on absent or malformed input.

        Tolerance is deliberate: a mixed-version fleet must interoperate,
        so a peer that sends garbage ``ctx`` degrades to untraced rather
        than faulting the connection.
        """
        if not isinstance(wire, Mapping):
            return None
        run = wire.get("run")
        trace = wire.get("trace")
        span = wire.get("span")
        if not (isinstance(run, str) and isinstance(trace, str) and isinstance(span, str)):
            return None
        parent = wire.get("parent")
        if parent is not None and not isinstance(parent, str):
            parent = None
        lam = wire.get("lam")
        if not isinstance(lam, int) or isinstance(lam, bool) or lam < 0:
            lam = 0
        return cls(
            run_id=run,
            trace_id=trace,
            span_id=span,
            parent_span_id=parent,
            lam=lam,
        )
