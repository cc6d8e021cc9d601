"""Durable state journal for the AlphaWAN Master: WAL + atomic snapshots.

The Master's channel-occupancy record is the region's source of truth,
so it must survive a ``kill -9``.  This module provides the two halves
of that durability story:

* :class:`StateJournal` — an append-only, checksummed JSONL
  **write-ahead log**.  Every mutating request is journaled *before*
  the in-memory state commits; after a crash,
  :meth:`StateJournal.replay` reconstructs the exact mutation sequence.
  Each line carries a CRC-32 over its canonical JSON body, so torn
  tail writes (the crash landed mid-``write``) are detected, dropped
  and — when replaying for recovery — truncated off the file so later
  appends start on a clean line, while corruption anywhere earlier
  raises :class:`JournalCorruptError` — silent truncation of committed
  state is never acceptable.
* :func:`write_snapshot` / :func:`read_snapshot` — periodic full-state
  snapshots written with the write-to-temp + ``fsync`` +
  ``os.replace`` idiom, so a snapshot file is either the complete old
  state or the complete new state, never a half-written hybrid.

The journal knows nothing about Master semantics: records are plain
JSON-safe dicts.  :class:`~repro.core.master.MasterNode` owns the
record vocabulary (``register`` / ``release`` ops) and the recovery
logic (snapshot, then replay records past the snapshot's sequence
number).

:class:`FailingJournal` is the fault-injection stand-in for a full
disk: every append raises :class:`JournalError`, which flips the
Master into read-only mode (see ``DESIGN.md`` §11).
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from typing import Any, Dict, List, Optional

logger = logging.getLogger(__name__)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalCorruptError",
    "StateJournal",
    "FailingJournal",
    "encode_record",
    "decode_record",
    "write_snapshot",
    "read_snapshot",
]

JOURNAL_SCHEMA_VERSION = 1

# Key under which each journal line / snapshot stores its own checksum.
_CRC_KEY = "crc"


class JournalError(Exception):
    """A journal write failed (disk full, closed handle, injected fault)."""


class JournalCorruptError(JournalError):
    """Committed journal records are damaged (bad CRC before the tail)."""


def _canonical(record: Dict[str, Any]) -> bytes:
    """The canonical byte form a record's checksum covers."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _crc_of(record: Dict[str, Any]) -> str:
    return f"{zlib.crc32(_canonical(record)) & 0xFFFFFFFF:08x}"


def encode_record(record: Dict[str, Any]) -> str:
    """Serialize one journal record to its checksummed JSONL line."""
    if _CRC_KEY in record:
        raise ValueError(f"record must not carry its own {_CRC_KEY!r} field")
    line = dict(record)
    line[_CRC_KEY] = _crc_of(record)
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and verify one journal line.

    Raises:
        JournalCorruptError: on malformed JSON or a checksum mismatch.
    """
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JournalCorruptError(f"unparseable journal line: {exc}")
    if not isinstance(parsed, dict):
        raise JournalCorruptError("journal line is not a JSON object")
    stored = parsed.pop(_CRC_KEY, None)
    if stored != _crc_of(parsed):
        raise JournalCorruptError(
            f"journal line checksum mismatch (stored {stored!r})"
        )
    return parsed


class StateJournal:
    """Append-only checksummed JSONL write-ahead log.

    Args:
        path: Journal file (created if missing, appended otherwise).
        fsync: Force each record to stable storage before returning.
            The durability guarantee requires it; tests that hammer the
            journal may turn it off.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self.records_written = 0
        try:
            self._fh: Optional[Any] = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise JournalError(f"cannot open journal {path!r}: {exc}") from exc

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the journal handle (idempotent)."""
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def __enter__(self) -> "StateJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (write + flush + fsync).

        Raises:
            JournalError: when the write cannot be made durable; the
                caller must treat its state as no longer persistable
                (the Master flips to read-only mode).
        """
        line = encode_record(record)
        if self._fh is None:
            raise JournalError(f"journal {self.path!r} is closed")
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"journal append to {self.path!r} failed: {exc}"
            ) from exc
        self.records_written += 1

    def ensure_header(self, config: Dict[str, Any]) -> None:
        """Write the header record once, on a fresh journal file.

        The header pins the journal's schema version and the Master
        configuration (grid, expected networks, overlap ratio) so
        recovery can rebuild an identical node without out-of-band
        state.  On a non-empty journal this is a no-op — the existing
        header stays authoritative.
        """
        try:
            empty = os.path.getsize(self.path) == 0
        except OSError:
            empty = True
        if empty:
            self.append(
                {
                    "kind": "header",
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "config": config,
                }
            )

    # -- reading -----------------------------------------------------------

    @staticmethod
    def replay(path: str, repair: bool = False) -> List[Dict[str, Any]]:
        """Read and verify every record of a journal file.

        A corrupt, checksum-invalid or unterminated **final** line is a
        torn tail — the crash interrupted that append before it was
        acknowledged — and is dropped with a warning.  With
        ``repair=True`` the torn fragment is also truncated off the
        file (and the truncation fsynced), so the next append starts on
        a clean line instead of concatenating onto the fragment and
        corrupting an acknowledged record.  Corruption anywhere before
        the tail raises :class:`JournalCorruptError`: committed state
        was damaged and recovery must not silently continue past it.

        Returns an empty list when the file does not exist.
        """
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
        records: List[Dict[str, Any]] = []
        size = len(blob)
        pos = 0
        valid_end = 0  # byte offset just past the last intact record
        while pos < size:
            newline = blob.find(b"\n", pos)
            if newline == -1:
                # Unterminated final line: the crash landed mid-write,
                # before the record was acknowledged — a torn tail even
                # if the fragment happens to parse.
                logger.warning(
                    "journal %s: dropping unterminated torn tail at "
                    "byte %d",
                    path,
                    pos,
                )
                break
            end = newline + 1
            line = blob[pos:newline].decode("utf-8", errors="replace").strip()
            if not line:
                pos = end
                continue
            try:
                records.append(decode_record(line))
            except JournalCorruptError:
                if end >= size:
                    logger.warning(
                        "journal %s: dropping torn tail at byte %d",
                        path,
                        pos,
                    )
                    break
                raise
            valid_end = end
            pos = end
        if repair and valid_end < size:
            StateJournal._truncate_to(path, valid_end)
        return records

    @staticmethod
    def _truncate_to(path: str, offset: int) -> None:
        """Cut a journal back to ``offset`` bytes (torn-tail repair)."""
        try:
            with open(path, "rb+") as fh:
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot repair torn tail of {path!r}: {exc}"
            ) from exc
        logger.warning(
            "journal %s: truncated torn tail; file now ends at byte %d",
            path,
            offset,
        )


class FailingJournal(StateJournal):
    """A journal whose appends always fail — injected disk-full fault.

    Used by the failover drill and the read-only-mode tests: swapping a
    Master's journal for a ``FailingJournal`` makes its next mutation
    trip the degraded path exactly as a full disk would.
    """

    def __init__(self, path: str = os.devnull) -> None:
        super().__init__(path, fsync=False)

    def append(self, record: Dict[str, Any]) -> None:
        raise JournalError(
            f"injected journal fault (simulated disk full) for {self.path!r}"
        )


# ---------------------------------------------------------------------------
# snapshots


def write_snapshot(path: str, payload: Dict[str, Any]) -> None:
    """Atomically persist a full-state snapshot.

    Write-to-temp + ``fsync`` + ``os.replace``: a reader (including a
    recovering Master) sees either the previous snapshot or this one in
    full, never a partial file.  The payload gains a top-level checksum
    verified by :func:`read_snapshot`.
    """
    if _CRC_KEY in payload:
        raise ValueError(f"snapshot must not carry its own {_CRC_KEY!r} field")
    body = dict(payload)
    body[_CRC_KEY] = _crc_of(payload)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(body, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise JournalError(f"snapshot write to {path!r} failed: {exc}") from exc


def read_snapshot(path: str) -> Optional[Dict[str, Any]]:
    """Load a snapshot written by :func:`write_snapshot`.

    Returns ``None`` when the file is missing **or** fails its checksum
    — a damaged snapshot is not fatal because the journal still holds
    the full history; recovery falls back to a complete replay (a
    warning is logged so the operator knows the snapshot was lost).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise JournalError(f"cannot read snapshot {path!r}: {exc}") from exc
    try:
        parsed = json.loads(raw)
        if not isinstance(parsed, dict):
            raise JournalCorruptError("snapshot is not a JSON object")
        stored = parsed.pop(_CRC_KEY, None)
        if stored != _crc_of(parsed):
            raise JournalCorruptError("snapshot checksum mismatch")
    except (json.JSONDecodeError, JournalCorruptError) as exc:
        logger.warning(
            "snapshot %s unusable (%s); recovery will replay the full "
            "journal instead",
            path,
            exc,
        )
        return None
    return parsed
