"""TCP server exposing the AlphaWAN Master node.

One thread per operator connection; the underlying
:class:`~repro.core.master.MasterNode` is already thread-safe.  Use as
a context manager::

    with MasterServer(MasterNode(grid, expected_networks=4)) as server:
        client = MasterClient(server.address)
        assignment = client.register("operator-1")

Fault injection: with a :class:`~repro.faults.plan.FaultPlan` the
server consults the plan's Master outage windows on every request
(against ``clock``, which defaults to seconds since server start) and
simulates an outage by dropping the connection without answering —
exactly what a crashed Master looks like from the operator side.  The
plan's :class:`~repro.faults.plan.MasterCrash` entries go further:
after the Nth request is **applied** (journaled and committed) the
server dies without replying — the precise window where a retried
request would double-assign spectrum if the Master did not answer
replays from its journal (see ``DESIGN.md`` §11).

A ``recv_timeout_s`` bounds how long a connection may sit silent
between requests; hung or half-open clients are reaped (connection
closed, ``master.conn_reaped`` traced) instead of pinning a handler
thread forever.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from ..faults.plan import FaultPlan
from ..obs import runtime as _obs
from ..obs.events import EventType
from .master import (
    LeaseError,
    MasterNode,
    MasterReadOnlyError,
    RegionFullError,
)

logger = logging.getLogger(__name__)
from .protocol import (
    ProtocolError,
    assignment_to_wire,
    read_message,
    send_message,
)

__all__ = ["MasterServer"]


class MasterServer:
    """Threaded TCP front-end for a :class:`MasterNode`.

    Args:
        master: The coordination logic.
        host / port: Listening address (port 0 = ephemeral).
        fault_plan: Optional fault plan whose Master outage windows and
            crash points this server honours.
        clock: Time source evaluated against the plan's windows;
            defaults to seconds since server construction.  Tests pass
            a controllable callable to pin the server inside or outside
            an outage.
        recv_timeout_s: Optional per-connection receive deadline; a
            connection silent for longer is reaped (closed with a
            trace event) so it cannot pin a handler thread.
    """

    def __init__(
        self,
        master: MasterNode,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[Callable[[], float]] = None,
        recv_timeout_s: Optional[float] = None,
    ) -> None:
        self.master = master
        self.fault_plan = fault_plan
        # Real-TCP-server wall clock: the default clock drives fault
        # windows for live servers only; deterministic runs inject a
        # virtual clock instead.
        if clock is None:
            epoch = time.monotonic()  # repro: noqa[DET002]
            clock = lambda: time.monotonic() - epoch  # noqa: E731  # repro: noqa[DET002]
        self.clock = clock
        self.recv_timeout_s = recv_timeout_s
        # Handler threads mutate these concurrently; all three share one
        # lock (an unlocked `+= 1` is a lost-update race).
        self._counters_lock = threading.Lock()
        self._dropped_requests = 0
        self._reaped_connections = 0
        self._requests_seen = 0
        self._crash_points = (
            sorted(c.at_request for c in fault_plan.master_crashes)
            if fault_plan is not None
            else []
        )
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.address: Tuple[str, int] = self._sock.getsockname()
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="alphawan-master", daemon=True
        )
        self._started = False

    # -- counters ----------------------------------------------------------

    @property
    def dropped_requests(self) -> int:
        """Requests dropped inside Master outage windows."""
        with self._counters_lock:
            return self._dropped_requests

    @property
    def reaped_connections(self) -> int:
        """Idle/half-open connections reaped by the receive timeout."""
        with self._counters_lock:
            return self._reaped_connections

    @property
    def requests_seen(self) -> int:
        """Requests read off the wire (served, dropped, or crashed on)."""
        with self._counters_lock:
            return self._requests_seen

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "MasterServer":
        """Start accepting connections (idempotent)."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop the server and sever every open connection.

        Closing live operator connections is what makes this a faithful
        Master crash: clients mid-exchange see a dead socket, exactly
        what their retry/reconnect path is built for.  The accept
        thread is joined first: a thread still inside ``accept()`` keeps
        the port listening after the socket is closed, so a client that
        sees its connection die could find the port taken when it
        restarts a Master there.
        """
        self._stop.set()
        try:
            # Unblock accept() with a self-connection.
            poke = socket.create_connection(self.address, timeout=0.5)
            poke.close()
        except OSError:
            pass
        if self._started and threading.current_thread() is not self._thread:
            self._thread.join(timeout=2.0)
        self._sock.close()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            # close() alone neither wakes a handler blocked in recv()
            # nor ends the kernel socket, so an idle client would read
            # no EOF: shut the connection down first.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def kill(self) -> None:
        """Die like ``kill -9``: sever everything, flush nothing.

        The journal needs no flushing — it is written ahead of every
        commit — so an abrupt close is exactly a process kill from the
        operators' point of view.  Used by the crash-restart fault and
        the failover drill.
        """
        self.close()

    def __enter__(self) -> "MasterServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request handling --------------------------------------------------

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                break
            if self._stop.is_set():
                conn.close()
                break
            with self._conns_lock:
                self._conns.add(conn)
            handler = threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            )
            handler.start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            self._serve_connection(conn)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    message = read_message(conn, timeout_s=self.recv_timeout_s)
                except socket.timeout:
                    self._reap_connection(conn)
                    return
                except (ProtocolError, OSError):
                    return
                if message is None:
                    return
                with self._counters_lock:
                    self._requests_seen += 1
                    request_no = self._requests_seen
                if self._master_down():
                    # Outage window: vanish mid-exchange, as a crashed
                    # Master would — no error reply, just a dead socket.
                    # The drop is traced *before* the socket closes, so
                    # it sequences ahead of the client's retry events.
                    with self._counters_lock:
                        self._dropped_requests += 1
                    rec = _obs.TRACE
                    if rec is not None:
                        rec.emit(
                            EventType.MASTER_DROPPED, req=message.get("type")
                        )
                    metrics = _obs.METRICS
                    if metrics is not None:
                        metrics.counter(
                            "repro_master_dropped_total",
                            "requests dropped during Master outages",
                        ).inc()
                    logger.warning(
                        "master outage: dropping %r request mid-exchange",
                        message.get("type"),
                    )
                    return
                try:
                    response = self._dispatch(message)
                except (ProtocolError, OSError):
                    return
                if request_no in self._crash_points:
                    # Crash-restart fault: the mutation is applied and
                    # journaled, but the process dies before the reply
                    # leaves — the exact duplicate-assignment window
                    # the request-id journal closes.
                    self._emit_crash(request_no, message.get("type"))
                    self.kill()
                    return
                try:
                    send_message(conn, response)
                except OSError:
                    return

    def _reap_connection(self, conn: socket.socket) -> None:
        with self._counters_lock:
            self._reaped_connections += 1
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(
                EventType.MASTER_CONN_REAPED,
                timeout_s=self.recv_timeout_s,
            )
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_master_conns_reaped_total",
                "idle/half-open connections reaped by the recv timeout",
            ).inc()
        logger.warning(
            "reaping connection: no request within %.3f s",
            self.recv_timeout_s or 0.0,
        )

    def _emit_crash(self, request_no: int, req_type: object) -> None:
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(
                EventType.MASTER_CRASH, at_request=request_no, req=req_type
            )
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_master_crashes_total",
                "injected Master crash-restart faults",
            ).inc()
        logger.warning(
            "injected master crash after request #%d (%r applied, "
            "reply withheld)",
            request_no,
            req_type,
        )

    def _master_down(self) -> bool:
        """Whether the fault plan places us inside a Master outage."""
        if self.fault_plan is None:
            return False
        return self.fault_plan.master_down_at(self.clock())

    @staticmethod
    def _error(message: str, code: str) -> Dict:
        return {"type": "error", "message": message, "code": code}

    def _dispatch(self, message: Dict) -> Dict:
        mtype = message.get("type")
        request_id = message.get("request_id")
        if request_id is not None:
            request_id = str(request_id)
        if mtype == "register":
            operator = message.get("operator", "")
            try:
                assignment = self.master.register(
                    str(operator), request_id=request_id
                )
            except ValueError as exc:
                return self._error(str(exc), "bad_request")
            except (RegionFullError, MasterReadOnlyError) as exc:
                return self._error(str(exc), exc.code)
            return assignment_to_wire(assignment)
        if mtype == "release":
            operator = str(message.get("operator", ""))
            try:
                held = self.master.release(operator, request_id=request_id)
            except MasterReadOnlyError as exc:
                return self._error(str(exc), exc.code)
            return {"type": "released", "operator": operator, "held": held}
        if mtype == "resume":
            operator = str(message.get("operator", ""))
            lease = str(message.get("lease", ""))
            try:
                assignment = self.master.resume(operator, lease)
            except LeaseError as exc:
                return self._error(str(exc), exc.code)
            response = assignment_to_wire(assignment)
            response["type"] = "resumed"
            return response
        if mtype == "status":
            snapshot = self.master.status()
            return {"type": "status_ok", **snapshot}
        return self._error(f"unknown message type {mtype!r}", "unknown_type")
