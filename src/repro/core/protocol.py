"""Wire protocol between operators and the AlphaWAN Master.

Length-prefixed JSON over TCP: each message is a 4-byte big-endian
unsigned length followed by a UTF-8 JSON object.  Message types:

* ``register``   {"type": "register", "operator": str,
  "request_id": str?}
* ``release``    {"type": "release", "operator": str,
  "request_id": str?}
* ``resume``     {"type": "resume", "operator": str, "lease": str}
* ``status``     {"type": "status"}
* ``assignment`` {"type": "assignment", "operator", "slot", "shift_hz",
  "grid": {"start_hz", "width_hz", "spacing_hz", "bandwidth_hz"},
  "lease": str, "epoch": int}
* ``resumed``    — same payload as ``assignment`` (lease revalidated)
* ``released``   {"type": "released", "operator", "held": bool}
* ``status_ok``  {"type": "status_ok", ...snapshot}
* ``error``      {"type": "error", "message": str, "code": str}

``request_id`` is a client-generated token reused verbatim across
retries of one logical request; the Master journals completions by it,
so a retry reaching a restarted Master is answered from the journal
instead of re-executing (exactly-once over a lossy wire).  ``lease`` /
``epoch`` are the durability tokens described in ``DESIGN.md`` §11.
Error ``code`` is machine-readable: ``region_full``, ``degraded``
(Master read-only), ``lease_stale``, ``unknown_operator``,
``bad_request``, or ``unknown_type``.

Dispatch reads only known keys, so the ``ctx`` trace-context key an
older client may send is ignored.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional

from ..phy.channels import ChannelGrid
from .master import Assignment

__all__ = [
    "MAX_MESSAGE_BYTES",
    "encode_message",
    "read_message",
    "send_message",
    "grid_to_wire",
    "grid_from_wire",
    "assignment_to_wire",
    "assignment_from_wire",
    "ProtocolError",
]

MAX_MESSAGE_BYTES = 1 << 20  # 1 MiB: far above any AlphaWAN message
_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed or oversized protocol traffic."""


def encode_message(message: Dict) -> bytes:
    """Serialize one message to its wire form."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds limit")
    return _HEADER.pack(len(payload)) + payload


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on orderly EOF at a boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(
    sock: socket.socket, timeout_s: Optional[float] = None
) -> Optional[Dict]:
    """Read one message from a socket; ``None`` on clean EOF.

    Args:
        timeout_s: Optional receive deadline applied to the socket for
            this read.  A peer that stays silent past it raises
            ``socket.timeout`` (an ``OSError``), letting servers reap
            hung or half-open connections instead of pinning a handler
            thread forever.  ``None`` leaves the socket's own timeout
            untouched.

    Raises:
        ProtocolError: on truncation, oversized frames, or bad JSON.
        socket.timeout: when ``timeout_s`` elapses with no data.
    """
    if timeout_s is not None:
        sock.settimeout(timeout_s)
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed before payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid message payload: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def send_message(sock: socket.socket, message: Dict) -> None:
    """Write one message to a socket."""
    sock.sendall(encode_message(message))


def grid_to_wire(grid: ChannelGrid) -> Dict[str, float]:
    """Serialize a channel grid."""
    return {
        "start_hz": grid.start_hz,
        "width_hz": grid.width_hz,
        "spacing_hz": grid.spacing_hz,
        "bandwidth_hz": grid.bandwidth_hz,
    }


def grid_from_wire(data: Dict) -> ChannelGrid:
    """Deserialize a channel grid."""
    try:
        return ChannelGrid(
            start_hz=float(data["start_hz"]),
            width_hz=float(data["width_hz"]),
            spacing_hz=float(data["spacing_hz"]),
            bandwidth_hz=float(data["bandwidth_hz"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid grid payload: {exc}")


def assignment_to_wire(assignment: Assignment) -> Dict:
    """Serialize an assignment response."""
    return {
        "type": "assignment",
        "operator": assignment.operator,
        "slot": assignment.slot,
        "shift_hz": assignment.shift_hz,
        "grid": grid_to_wire(assignment.grid),
        "channel_indices": list(assignment.channel_indices),
        "lease": assignment.lease,
        "epoch": assignment.epoch,
    }


def assignment_from_wire(data: Dict) -> Assignment:
    """Deserialize an assignment response.

    ``lease`` / ``epoch`` default when absent, so caches persisted by
    pre-durability versions still load.
    """
    try:
        return Assignment(
            operator=str(data["operator"]),
            slot=int(data["slot"]),
            shift_hz=float(data["shift_hz"]),
            grid=grid_from_wire(data["grid"]),
            channel_indices=tuple(int(i) for i in data["channel_indices"]),
            lease=str(data.get("lease", "")),
            epoch=int(data.get("epoch", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid assignment payload: {exc}")
