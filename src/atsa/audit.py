"""Append-only audit log with a SHA-256 hash chain.

Every admission decision lands here as one record. Each record's hash covers
the previous record's hash plus the canonical serialization of its own
content, so any in-place edit, deletion, insertion, or reordering breaks the
chain at a detectable index. Append failures must abort the guarded action;
nothing in this module swallows sink errors. A sink is any object with
``write(record)``; ``JsonlAuditSink`` is the durable one.

A record's content is hashed as its canonical JSON (``sad.canonical_json_bytes``),
and ``append`` and ``verify_chain`` both reach it through one record encoder,
``canonical_json_bytes`` here. Content whose ``seq`` is an ``int`` (not a
``bool``), whose ``timestamp`` and ``event`` are ``str`` and whose ``payload``
is a ``dict`` of ``str`` keys to ``str`` or ``None`` values, as in every
record the admission gate and the gateway append, fills a fixed template::

    {"event":E,"payload":{K:V,...},"seq":N,"timestamp":T}

with the payload keys in code-point order and every string escaped by
``json.encoder.encode_basestring``, the C escaper the canonical encoder uses.
The text is encoded to UTF-8 with ``backslashreplace``, so a lone surrogate is
written as ``\\udxxx``, as the canonical encoder writes it. Any other content
(an int, bool or nested payload value, a non-string key, a ``bool`` seq) goes
to ``sad.canonical_json_bytes`` unchanged, and raises what it raises.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import Any, Callable, Mapping, Protocol, Sequence, TextIO

from . import sad
from ._json import read_jsonl
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
    content = canonical_json_bytes({"seq": seq, "timestamp": timestamp, "event": event, "payload": payload})
    return hashlib.sha256(prev_hash + content).digest()


_CONTENT_KEYS = frozenset(("event", "payload", "seq", "timestamp"))


def canonical_json_bytes(value: Any) -> bytes:
    """The bytes of ``sad.canonical_json_bytes(value)``. Record content of the
    flat shape fills the template of the module docstring; any other value is
    handed to ``sad.canonical_json_bytes``."""
    if type(value) is not dict or value.keys() != _CONTENT_KEYS:
        return sad.canonical_json_bytes(value)
    seq, timestamp, event, payload = value["seq"], value["timestamp"], value["event"], value["payload"]
    if type(seq) is not int or type(timestamp) is not str or type(event) is not str or type(payload) is not dict:
        return sad.canonical_json_bytes(value)
    for key, member in payload.items():
        if type(key) is not str or (member is not None and type(member) is not str):
            return sad.canonical_json_bytes(value)
    members = []
    for key in sorted(payload):
        member = payload[key]
        members.append(f"{encode_basestring(key)}:{'null' if member is None else encode_basestring(member)}")
    text = (
        f'{{"event":{encode_basestring(event)},"payload":{{{",".join(members)}}},'
        f'"seq":{seq},"timestamp":{encode_basestring(timestamp)}}}'
    )
    return text.encode("utf-8", "backslashreplace")


class AuditSink(Protocol):
    def write(self, record: AuditRecord) -> None: ...


class JsonlAuditSink:
    """One JSON object per line, flushed and fsynced before append returns.
    A lone surrogate, which can only sit inside a JSON string, is written as
    its ``\\uXXXX`` escape. One writer per file, or two would extend one
    head: the sink takes an exclusive ``flock`` as it is built, before the
    head is read, and holds it until ``close``. A sink in another process
    waits for it; a second sink in this process, which would wait forever,
    raises AuditError. So does a file whose last byte, once the lock is
    held, is not a newline: a crash cut its last line, and a record written
    now would land on that line. The file is left as it is, and unlocked."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        # Opened for reading too, so the last byte can be read under the lock.
        self._handle: TextIO = open(self.path, "a+", encoding="utf-8", errors="backslashreplace")
        descriptor = self._handle.fileno()
        status = os.fstat(descriptor)
        self._file = (status.st_dev, status.st_ino)
        with _HELD_MUTEX:
            if self._file in _HELD:
                self._handle.close()
                raise AuditError("the log is in use by another sink in this process")
            _HELD.add(self._file)
        try:
            fcntl.flock(self._handle, fcntl.LOCK_EX)
            size = os.fstat(descriptor).st_size
            if size and os.pread(descriptor, 1, size - 1) != b"\n":
                # Numbered from 0, as the loader numbers it.
                line = os.pread(descriptor, size, 0).count(b"\n")
                raise AuditError(f"line {line}: torn final line (no newline): cut the file back to its last newline")
        except BaseException:
            self.close()
            raise

    def write(self, record: AuditRecord) -> None:
        line = json.dumps(record_to_wire(record), ensure_ascii=False, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
            with _HELD_MUTEX:
                _HELD.discard(self._file)


# The (device, inode) of each file a JsonlAuditSink in this process holds.
_HELD: set[tuple[int, int]] = set()
_HELD_MUTEX = threading.Lock()


def _utcnow() -> datetime:
    return datetime.now(timezone.utc)


def _format_timestamp(moment: datetime) -> str:
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return format_rfc3339(moment.astimezone(timezone.utc))


class AuditLog:
    """Appender holding the chain head. Records are kept in memory and
    forwarded to an optional sink; a sink failure propagates to the caller.
    The record may already be on disk then, so after a failed sink write the
    log refuses every append until it is resumed from disk: a later record
    would repeat the failed one's seq and break the chain for ``verify_chain``.
    ``clock`` stamps every record."""

    def __init__(
        self,
        sink: AuditSink | None = None,
        clock: Callable[[], datetime] = _utcnow,
    ) -> None:
        self._sink = sink
        self.clock = clock
        self._records: list[AuditRecord] = []
        self._mutex = threading.Lock()
        self._sink_failed = False

    @classmethod
    def resume(cls, records: Sequence[AuditRecord], sink: AuditSink | None = None) -> "AuditLog":
        """Continue an existing chain, e.g. one reloaded from a JSONL file.

        The prior records must verify; appending to a broken chain would
        launder the tampering.
        """
        first_bad = verify_chain(records)
        if first_bad is not None:
            raise AuditError(f"cannot resume a broken chain: violation at record {first_bad}")
        log = cls(sink)
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
            if self._sink_failed:
                raise AuditError("a sink write failed; resume the log from disk before appending")
            seq = len(self._records)
            prev_hash = self._records[-1].hash if self._records else GENESIS_PREV_HASH
            timestamp = _format_timestamp(self.clock())
            stored = dict(payload)
            record = AuditRecord(
                seq=seq,
                timestamp=timestamp,
                event=event,
                payload=stored,
                prev_hash=prev_hash,
                hash=compute_record_hash(prev_hash, seq, timestamp, event, stored),
            )
            if self._sink is not None:
                self._sink_failed = True  # stays set if the write raises
                self._sink.write(record)
                self._sink_failed = False
            self._records.append(record)
            return record


def verify_chain(records: Sequence[AuditRecord]) -> int | None:
    """Check a complete log. Returns None when intact, else the index of the
    first record whose sequencing, linkage, or content hash is wrong. Content
    that cannot be canonicalized (a float, or nesting past the recursion
    limit) has no valid hash, so its record is the bad index."""
    for index, record in enumerate(records):
        expected_prev = records[index - 1].hash if index else GENESIS_PREV_HASH
        if record.seq != index:
            return index
        if record.prev_hash != expected_prev:
            return index
        try:
            recomputed = compute_record_hash(
                record.prev_hash, record.seq, record.timestamp, record.event, record.payload
            )
        except (TypeError, RecursionError):
            return index
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
    """Records of a JSONL log. A line that is not a JSON record raises AuditError."""
    return [record_from_wire(data) for _, data in read_jsonl(path, AuditError)]
