"""Append-only audit log with a SHA-256 hash chain.

Every admission decision lands here as one record. Each record's hash covers
the previous record's hash plus the canonical serialization of its own
content, so any in-place edit, deletion, insertion, or reordering breaks the
chain at a detectable index. Append failures must abort the guarded action;
nothing in this module swallows sink errors. A sink is any object with
``write(record)``; ``JsonlAuditSink`` is the durable one.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Mapping, Protocol, Sequence, TextIO

from .sad import canonical_json_bytes
from .trustroot import format_rfc3339

__all__ = [
    "EVENT_CONNECT_ALLOW",
    "EVENT_CONNECT_DENY",
    "EVENT_CONNECT_WARN",
    "EVENT_TOOL_DENY",
    "EVENT_PAYLOAD_FIELDS",
    "GENESIS_PREV_HASH",
    "AuditError",
    "AuditLog",
    "AuditRecord",
    "JsonlAuditSink",
    "compute_record_hash",
    "load_audit_jsonl",
    "record_from_wire",
    "record_to_wire",
    "verify_chain",
]

EVENT_CONNECT_ALLOW = "mcp.connect.allow"
EVENT_CONNECT_DENY = "mcp.connect.deny"
EVENT_CONNECT_WARN = "mcp.connect.warn"
EVENT_TOOL_DENY = "mcp.tool.deny"

# Closed event vocabulary and the payload fields each event must carry.
# Extra payload fields are permitted; missing ones are an append error.
EVENT_PAYLOAD_FIELDS: dict[str, tuple[str, ...]] = {
    EVENT_CONNECT_ALLOW: ("level", "signerKeyId"),
    EVENT_CONNECT_DENY: ("reason",),
    EVENT_CONNECT_WARN: ("reason",),
    EVENT_TOOL_DENY: ("server", "bridge", "toolName", "reason"),
}

GENESIS_PREV_HASH = bytes(32)


class AuditError(ValueError):
    """Invalid event name, payload shape, or log wire format."""


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    timestamp: str
    event: str
    payload: Mapping[str, Any]
    prev_hash: bytes
    hash: bytes


def compute_record_hash(
    prev_hash: bytes, seq: int, timestamp: str, event: str, payload: Mapping[str, Any]
) -> bytes:
    """SHA-256 over the previous hash concatenated with the canonical JSON of
    the record content (hash fields excluded)."""
    content = canonical_json_bytes(
        {"seq": seq, "timestamp": timestamp, "event": event, "payload": dict(payload)}
    )
    return hashlib.sha256(prev_hash + content).digest()


class AuditSink(Protocol):
    def write(self, record: AuditRecord) -> None: ...


class JsonlAuditSink:
    """One JSON object per line, flushed and fsynced before append returns.
    The file is opened at the first write. A lone surrogate, which can only
    sit inside a JSON string, is written as its ``\\uXXXX`` escape."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._handle: TextIO | None = None

    def write(self, record: AuditRecord) -> None:
        line = json.dumps(record_to_wire(record), ensure_ascii=False, separators=(",", ":"))
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8", errors="backslashreplace")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


def _utcnow() -> datetime:
    return datetime.now(timezone.utc)


def _format_timestamp(moment: datetime) -> str:
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return format_rfc3339(moment.astimezone(timezone.utc))


class AuditLog:
    """Appender holding the chain head. Records are kept in memory and
    forwarded to an optional sink; a sink failure propagates to the caller."""

    def __init__(
        self,
        sink: AuditSink | None = None,
        clock: Callable[[], datetime] = _utcnow,
    ) -> None:
        self._sink = sink
        self._clock = clock
        self._records: list[AuditRecord] = []
        self._mutex = threading.Lock()

    @classmethod
    def resume(
        cls,
        records: Sequence[AuditRecord],
        sink: AuditSink | None = None,
        clock: Callable[[], datetime] = _utcnow,
    ) -> "AuditLog":
        """Continue an existing chain, e.g. one reloaded from a JSONL file.

        The prior records must verify; appending to a broken chain would
        launder the tampering.
        """
        first_bad = verify_chain(records)
        if first_bad is not None:
            raise AuditError(f"cannot resume a broken chain: violation at record {first_bad}")
        log = cls(sink, clock)
        log._records = list(records)
        return log

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def append(self, event: str, payload: Mapping[str, Any]) -> AuditRecord:
        required = EVENT_PAYLOAD_FIELDS.get(event)
        if required is None:
            raise AuditError(f"unknown audit event {event!r}")
        missing = [name for name in required if name not in payload]
        if missing:
            raise AuditError(f"event {event!r} payload missing fields: {', '.join(missing)}")
        with self._mutex:
            seq = len(self._records)
            prev_hash = self._records[-1].hash if self._records else GENESIS_PREV_HASH
            timestamp = _format_timestamp(self._clock())
            record = AuditRecord(
                seq=seq,
                timestamp=timestamp,
                event=event,
                payload=dict(payload),
                prev_hash=prev_hash,
                hash=compute_record_hash(prev_hash, seq, timestamp, event, payload),
            )
            if self._sink is not None:
                self._sink.write(record)
            self._records.append(record)
            return record


def verify_chain(records: Sequence[AuditRecord]) -> int | None:
    """Check a complete log. Returns None when intact, else the index of the
    first record whose sequencing, linkage, or content hash is wrong."""
    for index, record in enumerate(records):
        expected_prev = records[index - 1].hash if index else GENESIS_PREV_HASH
        if record.seq != index:
            return index
        if record.prev_hash != expected_prev:
            return index
        recomputed = compute_record_hash(
            record.prev_hash, record.seq, record.timestamp, record.event, record.payload
        )
        if recomputed != record.hash:
            return index
    return None


def record_to_wire(record: AuditRecord) -> dict[str, Any]:
    return {
        "seq": record.seq,
        "timestamp": record.timestamp,
        "event": record.event,
        "payload": dict(record.payload),
        "prevHash": record.prev_hash.hex(),
        "hash": record.hash.hex(),
    }


def record_from_wire(data: Mapping[str, Any]) -> AuditRecord:
    try:
        seq = data["seq"]
        timestamp = data["timestamp"]
        event = data["event"]
        payload = data["payload"]
        prev_hash = bytes.fromhex(data["prevHash"])
        digest = bytes.fromhex(data["hash"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AuditError(f"malformed audit record: {exc}") from exc
    if isinstance(seq, bool) or not isinstance(seq, int):
        raise AuditError("audit record 'seq' must be an integer")
    if not isinstance(timestamp, str) or not isinstance(event, str):
        raise AuditError("audit record 'timestamp' and 'event' must be strings")
    if not isinstance(payload, dict):
        raise AuditError("audit record 'payload' must be an object")
    if len(prev_hash) != 32 or len(digest) != 32:
        raise AuditError("audit record hashes must be 32 bytes of hex")
    return AuditRecord(
        seq=seq, timestamp=timestamp, event=event, payload=payload,
        prev_hash=prev_hash, hash=digest,
    )


def load_audit_jsonl(path: str | os.PathLike[str]) -> list[AuditRecord]:
    records: list[AuditRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise AuditError(f"line {line_number}: not valid JSON: {exc}") from exc
            records.append(record_from_wire(data))
    return records
