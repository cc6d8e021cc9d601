"""Operator-side client of the AlphaWAN Master (TCP).

Runs inside the operator's network server: registers the network,
obtains the misaligned channel assignment, and can release the slot on
decommissioning.  Round-trip latency is recorded — it is the
"operator-to-Master communication" term in the paper's Figure 17.

Resilience: with a :class:`~repro.faults.retry.RetryPolicy` the client
retries failed round-trips with exponential backoff + jitter under a
bounded deadline, transparently reconnecting after every transport
failure.  Registration is idempotent at the Master, so a Master restart
mid-exchange is survivable — the retry simply re-registers.  When the
budget is exhausted a :class:`~repro.faults.retry.MasterUnavailableError`
is raised so callers can fall back to a cached assignment.
"""

from __future__ import annotations

import logging
import random
import socket
import time
from typing import Callable, Dict, Optional, Tuple

from ..faults.retry import MasterUnavailableError, RetryPolicy
from ..obs import runtime as _obs
from ..obs.events import EventType
from .master import Assignment
from .protocol import (
    ProtocolError,
    assignment_from_wire,
    read_message,
    send_message,
)

logger = logging.getLogger(__name__)

__all__ = ["MasterClient", "MasterRequestError"]

# Transport-level failures worth a reconnect + retry.  MasterRequestError
# is excluded: the Master answered, it just said no.
_TRANSIENT_ERRORS = (OSError, ProtocolError)


class MasterRequestError(Exception):
    """The Master rejected a request (e.g. region full).

    Attributes:
        code: Machine-readable error code from the wire (``region_full``,
            ``degraded``, ``lease_stale``, ``unknown_operator``,
            ``bad_request``, ``unknown_type``).
    """

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class MasterClient:
    """A persistent connection to the Master node.

    Args:
        address: Master ``(host, port)``.
        timeout_s: Per-round-trip socket timeout (the bounded request
            deadline for a single attempt).
        retry: Optional retry policy; without one, every transport
            failure surfaces immediately (legacy behaviour) — but the
            dead socket is still dropped so the next call reconnects.
        retry_seed: Seed for the backoff jitter (deterministic runs).
        sleep: Injection point for the backoff sleep (tests pass a
            no-op or a virtual clock).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout_s: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.retry = retry
        self._rng = random.Random(retry_seed)
        # Request-id stream, separate from the backoff jitter stream so
        # adding ids does not perturb existing deterministic backoffs.
        self._id_rng = random.Random(retry_seed ^ 0x5DEECE66D)
        self._request_seq = 0
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self.last_rtt_s: Optional[float] = None
        self.reconnects = 0
        self.retries = 0

    # -- connection management -------------------------------------------

    def connect(self) -> "MasterClient":
        """Open the TCP connection (idempotent)."""
        if self._sock is None:
            self._sock = socket.create_connection(
                self.address, timeout=self.timeout_s
            )
        return self

    def close(self) -> None:
        """Close the connection."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "MasterClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- requests ---------------------------------------------------------

    def _roundtrip_once(self, message: Dict) -> Dict:
        """One send/receive exchange over the current connection.

        Any transport failure (timeout, reset, protocol violation)
        drops the socket so the next attempt reconnects instead of
        reusing a dead connection.
        """
        reconnected = self._sock is None
        self.connect()
        if reconnected:
            self.reconnects += 1
        assert self._sock is not None
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(EventType.MASTER_REQUEST, req=message.get("type"))
        t0 = time.perf_counter()
        try:
            send_message(self._sock, message)
            response = read_message(self._sock)
        except _TRANSIENT_ERRORS:
            self.close()
            raise
        # Bind the reading locally: ``last_rtt_s`` is Optional (None
        # until the first round-trip) and must not leak into telemetry
        # sinks that require a float.
        rtt_wall_s = time.perf_counter() - t0
        self.last_rtt_s = rtt_wall_s
        if response is None:
            self.close()
            raise ProtocolError("master closed the connection")
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.histogram(
                "repro_master_rtt_seconds",
                "Master round-trip latency",
            ).observe(rtt_wall_s)
        if rec is not None:
            rec.emit(
                EventType.MASTER_RESPONSE,
                req=message.get("type"),
                rtt_wall_s=rtt_wall_s,
            )
        if response.get("type") == "error":
            raise MasterRequestError(
                str(response.get("message", "unknown error")),
                code=str(response.get("code", "error")),
            )
        return response

    def _roundtrip(self, message: Dict) -> Dict:
        if self.retry is None:
            return self._roundtrip_once(message)
        policy = self.retry
        deadline = time.monotonic() + policy.deadline_s
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self._roundtrip_once(message)
            except _TRANSIENT_ERRORS as exc:
                last_error = exc
                if attempt == policy.max_attempts:
                    break
                backoff = policy.backoff_s(attempt, self._rng)
                if time.monotonic() + backoff >= deadline:
                    break
                self.retries += 1
                rec = _obs.TRACE
                if rec is not None:
                    rec.emit(
                        EventType.MASTER_RETRY,
                        req=message.get("type"),
                        attempt=attempt,
                        error=type(exc).__name__,
                    )
                metrics = _obs.METRICS
                if metrics is not None:
                    metrics.counter(
                        "repro_master_retries_total",
                        "Master round-trips retried after transport failure",
                    ).inc()
                logger.warning(
                    "master round-trip failed (attempt %d/%d): %s; retrying",
                    attempt,
                    policy.max_attempts,
                    exc,
                )
                self._sleep(backoff)
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(
                EventType.MASTER_UNAVAILABLE,
                req=message.get("type"),
                attempts=policy.max_attempts,
            )
        logger.error(
            "master at %s unreachable after %d attempt(s): %s",
            self.address,
            policy.max_attempts,
            last_error,
        )
        raise MasterUnavailableError(
            f"master at {self.address} unreachable after {policy.max_attempts}"
            f" attempt(s): {last_error}"
        ) from last_error

    def _next_request_id(self, operator: str) -> str:
        """A fresh id for one logical request (reused across retries)."""
        self._request_seq += 1
        nonce = self._id_rng.getrandbits(48)
        return f"{operator}:{self._request_seq}:{nonce:012x}"

    def register(self, operator: str) -> Assignment:
        """Register this operator; returns its channel assignment.

        Exactly-once over a lossy wire: the request carries a
        client-generated ``request_id`` built once per logical call, so
        every retry of this exchange re-sends the *same* id.  The
        Master journals completions by id — a retry that reaches a
        restarted Master (which already applied the original) is
        answered from the journal instead of allocating a second slot.
        """
        message = {
            "type": "register",
            "operator": operator,
            "request_id": self._next_request_id(operator),
        }
        response = self._roundtrip(message)
        if response.get("type") != "assignment":
            raise ProtocolError(f"unexpected response {response.get('type')!r}")
        return assignment_from_wire(response)

    def release(self, operator: str) -> bool:
        """Release this operator's slot; True if it was held.

        Carries a ``request_id`` like :meth:`register`, so a retried
        release reports the original ``held`` outcome instead of the
        second attempt's inevitable ``False``.
        """
        message = {
            "type": "release",
            "operator": operator,
            "request_id": self._next_request_id(operator),
        }
        response = self._roundtrip(message)
        if response.get("type") != "released":
            raise ProtocolError(f"unexpected response {response.get('type')!r}")
        return bool(response.get("held"))

    def resume(self, operator: str, lease: str) -> Assignment:
        """Revalidate a held lease after a disconnect or Master restart.

        Read-only at the Master (works even in degraded mode).  Returns
        the current assignment — whose ``epoch`` reveals whether the
        Master has been through a recovery since the lease was minted.
        Raises :class:`MasterRequestError` with code ``lease_stale`` or
        ``unknown_operator`` when the lease no longer matches.
        """
        response = self._roundtrip(
            {"type": "resume", "operator": operator, "lease": lease}
        )
        if response.get("type") != "resumed":
            raise ProtocolError(f"unexpected response {response.get('type')!r}")
        return assignment_from_wire(response)

    def status(self) -> Dict:
        """Fetch the region occupancy snapshot."""
        response = self._roundtrip({"type": "status"})
        if response.get("type") != "status_ok":
            raise ProtocolError(f"unexpected response {response.get('type')!r}")
        return {k: v for k, v in response.items() if k != "type"}
