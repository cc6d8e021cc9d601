"""Zero-dependency HTTP exporter for live health and metrics.

A tiny :mod:`http.server`-based endpoint that any long-lived component
(the Master server, a network server, or an observed experiment) can
attach to expose the observability session over HTTP:

* ``GET /metrics`` — Prometheus text exposition (the session
  :class:`~repro.obs.metrics.MetricsRegistry`, the gauges of the health
  monitor the exporter was given, and an attached performance probe's).
* ``GET /healthz`` — JSON health summary; status 200 while ``ok``,
  503 once ``degraded`` or ``critical`` (load-balancer semantics).
* ``GET /alerts`` — JSON list of fired alerts (active and resolved).

The server binds an ephemeral port by default and serves from a daemon
thread, so tests and notebooks can attach one without teardown hazards::

    with observe(health=True) as session:
        with HealthHTTPExporter(monitor=session.health) as exporter:
            run_chaos(seed=0)
            urllib.request.urlopen(exporter.url + "/healthz")

Endpoints only *read* monitor/registry state under their own locks; the
simulation never blocks on an HTTP client.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from . import runtime as _obs
from .health import HealthMonitor
from .metrics import MetricsRegistry

logger = logging.getLogger(__name__)

__all__ = ["HealthHTTPExporter"]

# Extra JSON payload providers merged into /healthz, e.g. the Master
# node's status snapshot: name -> zero-arg callable.
HealthSource = Callable[[], Mapping[str, Any]]


class HealthHTTPExporter:
    """Serves ``/metrics``, ``/healthz`` and ``/alerts`` for one session.

    Args:
        metrics: Registry backing ``/metrics``; defaults to the active
            session registry (read per-request, so attaching before
            ``observe()`` works).
        monitor: Health monitor backing ``/healthz`` and ``/alerts``
            (and its gauges on ``/metrics``).  Without one the exporter
            serves no monitor: ``/healthz`` reflects only
            ``health_sources``.
        health_sources: Extra named payloads merged into ``/healthz``
            under ``"sources"`` — a source reporting ``degraded: true``
            (or a ``status`` of ``"degraded"``/``"critical"``/
            ``"error"``) downgrades the overall status to at least
            ``degraded``; other status strings are informational.
        host / port: Bind address (port 0 = ephemeral).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        monitor: Optional[HealthMonitor] = None,
        health_sources: Optional[Dict[str, HealthSource]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._metrics = metrics
        self._monitor = monitor
        self.health_sources: Dict[str, HealthSource] = dict(health_sources or {})
        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                exporter._respond(self)

            def log_message(self, fmt: str, *args: Any) -> None:
                logger.debug("http: " + fmt, *args)

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self.address: Tuple[str, int] = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-health-http",
            daemon=True,
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the exporter (no trailing slash)."""
        return f"http://{self.address[0]}:{self.address[1]}"

    def start(self) -> "HealthHTTPExporter":
        """Start serving (idempotent)."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop serving and release the port."""
        self._server.shutdown()
        self._server.server_close()
        if self._started:
            self._thread.join(timeout=2.0)

    def __enter__(self) -> "HealthHTTPExporter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request handling --------------------------------------------------

    def _active_metrics(self) -> Optional[MetricsRegistry]:
        if self._metrics is not None:
            return self._metrics
        return _obs.METRICS

    def _respond(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body, status, ctype = self._metrics_payload()
            elif path == "/healthz":
                body, status, ctype = self._healthz_payload()
            elif path == "/alerts":
                body, status, ctype = self._alerts_payload()
            else:
                body, status, ctype = (
                    b'{"error":"not found"}',
                    404,
                    "application/json",
                )
        except Exception:  # pragma: no cover - defensive: never kill the thread
            logger.exception("health endpoint failure")
            body, status, ctype = (
                b'{"error":"internal"}',
                500,
                "application/json",
            )
        handler.send_response(status)
        handler.send_header("Content-Type", ctype)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def _metrics_payload(self) -> Tuple[bytes, int, str]:
        parts = []
        registry = self._active_metrics()
        if registry is not None:
            parts.append(registry.to_prometheus())
        if self._monitor is not None:
            parts.append(self._monitor.to_prometheus())
        probe = _obs.PERF
        if probe is not None:
            # Live throughput gauges while a performance probe is
            # attached (events/s, per-phase work counters).
            parts.append(probe.to_prometheus())
        return (
            "".join(parts).encode(),
            200,
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def healthz_snapshot(self) -> Dict[str, Any]:
        """The ``/healthz`` JSON payload (also usable in-process)."""
        monitor = self._monitor
        payload: Dict[str, Any] = (
            monitor.healthz()
            if monitor is not None
            else {"status": "ok", "gateways": {}, "active_alerts": 0}
        )
        if self.health_sources:
            sources: Dict[str, Any] = {}
            for name in sorted(self.health_sources):
                try:
                    snapshot = dict(self.health_sources[name]())
                except Exception as exc:
                    snapshot = {"status": "error", "error": str(exc)}
                sources[name] = snapshot
                # Only explicit negative signals downgrade the overall
                # status; benign strings like "running" must not 503.
                source_status = str(snapshot.get("status", "")).lower()
                if (
                    snapshot.get("degraded")
                    or source_status in ("degraded", "critical", "error")
                ) and payload["status"] == "ok":
                    payload["status"] = "degraded"
            payload["sources"] = sources
        return payload

    def _healthz_payload(self) -> Tuple[bytes, int, str]:
        payload = self.healthz_snapshot()
        status = 200 if payload["status"] == "ok" else 503
        return (
            json.dumps(payload, sort_keys=True).encode(),
            status,
            "application/json",
        )

    def _alerts_payload(self) -> Tuple[bytes, int, str]:
        alerts = self._monitor.alerts() if self._monitor is not None else []
        return (
            json.dumps({"alerts": alerts}, sort_keys=True).encode(),
            200,
            "application/json",
        )
