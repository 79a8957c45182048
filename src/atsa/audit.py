"""Append-only audit log with a SHA-256 hash chain.

Every admission decision lands here as one record. Each record's hash covers
the previous record's hash plus the canonical serialization of its own
content, so any in-place edit, deletion, insertion, or reordering breaks the
chain at a detectable index. Append failures must abort the guarded action;
nothing in this module swallows sink errors. A sink is any object with
``write(record)``; ``JsonlAuditSink`` is the durable one.

A record is flat: its ``seq`` is an ``int`` (not a ``bool``), its
``timestamp`` and ``event`` are ``str`` and its ``payload`` is a ``dict`` of
``str`` keys to ``str`` or ``None`` values. ``append`` and ``verify_chain``
hash its content through one record encoder, ``canonical_json_bytes`` here,
which fills a fixed hash template::

    {"event":E,"payload":{K:V,...},"seq":N,"timestamp":T}

with the payload keys in code-point order: the bytes of canonical JSON (the
``sad`` module's ``canonical_json_bytes``) of the record's dict.
``JsonlAuditSink`` writes a record's line from a fixed line template::

    {"seq":N,"timestamp":T,"event":E,"payload":{K:V,...},"prevHash":"…","hash":"…"}

with the payload in insertion order: the bytes the standard library's JSON
encoder writes for ``record_to_wire(record)``, compact and with
``ensure_ascii=False``. In both, every string is escaped by
``json.encoder.encode_basestring``, and each member's exact type is checked
in the loop that escapes it. The text is encoded to UTF-8 with
``backslashreplace``, so a lone surrogate is written as ``\\udxxx``, as
canonical JSON writes it. Content that is not flat raises ``TypeError`` from
both templates: ``append`` refuses it with ``AuditError`` and writes nothing,
and ``verify_chain`` reports a record read back with it as bad.
"""

from __future__ import annotations

import bisect
import fcntl
import functools
import hashlib
import os
import re
import threading
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence, TextIO

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

# Outside text, an agent's tool name or a detail that echoes a peer's document,
# is written whole up to this many bytes as the log writes them.
MAX_TEXT_BYTES = 256


# A high surrogate right before a low one: a JSON reader joins the two into one character.
_JOINED_ON_READ = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _logged_size(text: str) -> int:
    """The bytes ``text`` takes inside a JSON string of a log line: escaped by
    ``encode_basestring``, a lone surrogate written as its six-byte ``\\udxxx``."""
    return len(encode_basestring(text).encode("utf-8", "backslashreplace")) - 2


def bounded(text: str) -> str:
    """``text`` as a record holds outside text: whole if it takes at most
    ``MAX_TEXT_BYTES`` bytes as the log writes it, a quote, backslash or control
    character counted as its escape and a lone surrogate as ``\\udxxx``, and if
    a JSON reader reads it back as itself; else the longest prefix of its UTF-8
    bytes that fits with ``…(N bytes, sha256 <hex>)`` of all N, where a lone
    surrogate is the text ``\\udxxx``. Matching uses the whole text."""
    # Each character takes one to six bytes as the log writes it.
    fits = len(text) * 6 <= MAX_TEXT_BYTES or (len(text) <= MAX_TEXT_BYTES and _logged_size(text) <= MAX_TEXT_BYTES)
    if fits and (text.isascii() or not _JOINED_ON_READ.search(text)):
        return text
    data = text.encode("utf-8", "backslashreplace")
    suffix = f"…({len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()})"
    room = MAX_TEXT_BYTES - len(suffix.encode())  # the suffix has nothing to escape
    # "ignore" drops only a character that the cut splits. The prefix holds no
    # surrogate, so no reader joins two of them; its escapes may take more room.
    prefix = data[:room].decode("utf-8", "ignore")
    end = bisect.bisect_right(range(len(prefix) + 1), room, key=lambda size: _logged_size(prefix[:size]))
    return prefix[: end - 1] + suffix


class AuditError(ValueError):
    """Invalid event name, payload shape, or log wire format."""


class AuditRecord(NamedTuple):
    seq: int
    timestamp: str
    event: str
    payload: dict[str, str | None]
    prev_hash: bytes
    hash: bytes


# AuditRecord of a tuple of its six fields, without NamedTuple's Python-level __new__.
_new_record = functools.partial(tuple.__new__, AuditRecord)


def compute_record_hash(
    prev_hash: bytes, seq: int, timestamp: str, event: str, payload: dict[str, str | None]
) -> bytes:
    """SHA-256 over the previous hash concatenated with the canonical JSON of
    the record content (hash fields excluded)."""
    return hashlib.sha256(prev_hash + canonical_json_bytes(seq, timestamp, event, payload)).digest()


def _check_shape(seq: int, timestamp: str, event: str, payload: dict[str, str | None]) -> None:
    """Raise TypeError unless the four fields are a flat record's exact types."""
    if type(seq) is not int or type(timestamp) is not str or type(event) is not str or type(payload) is not dict:
        raise TypeError("an audit record is an int seq, a str timestamp and event, and a dict payload")


def _members(payload: dict[str, str | None], keys: Iterable[str]) -> str:
    """The payload's members in the order of ``keys``, each ``"K":V`` and joined by commas.
    A key that is not a ``str`` or a value that is neither a ``str`` nor ``None`` raises TypeError."""
    members = []
    for key in keys:
        member = payload[key]
        if type(key) is not str:
            raise TypeError(f"audit payload keys must be str, not {type(key).__name__}")
        if member is None:
            members.append(encode_basestring(key) + ":null")
        elif type(member) is str:
            members.append(f"{encode_basestring(key)}:{encode_basestring(member)}")
        else:
            raise TypeError(f"audit payload values must be str or None, not {type(member).__name__}")
    return ",".join(members)


def canonical_json_bytes(seq: int, timestamp: str, event: str, payload: dict[str, str | None]) -> bytes:
    """The hash template of the module docstring, filled with these four fields."""
    _check_shape(seq, timestamp, event, payload)
    text = (
        f'{{"event":{encode_basestring(event)},"payload":{{{_members(payload, sorted(payload))}}},'
        f'"seq":{seq},"timestamp":{encode_basestring(timestamp)}}}'
    )
    return text.encode("utf-8", "backslashreplace")


def _jsonl_line(record: AuditRecord) -> str:
    """The line template of the module docstring, filled with ``record``."""
    seq, timestamp, event, payload, prev_hash, digest = record
    _check_shape(seq, timestamp, event, payload)
    return (
        f'{{"seq":{seq},"timestamp":{encode_basestring(timestamp)},"event":{encode_basestring(event)},'
        f'"payload":{{{_members(payload, payload)}}},"prevHash":"{prev_hash.hex()}","hash":"{digest.hex()}"}}'
    )


class AuditSink(Protocol):
    def write(self, record: AuditRecord) -> None: ...


class JsonlAuditSink:
    """One JSON object per line, written and flushed to the OS, in chain
    order, before append returns. It is fsynced when an action depends on
    it: an ``mcp.connect.allow`` record is fsynced before append returns,
    and that also makes every earlier record durable. So is the record that
    brings the unsynced count to ``_MAX_UNSYNCED``, and ``close`` fsyncs the
    rest. So a crash of the machine can lose at most the denials and warns
    written since the last fsync, never an allow; a torn tail is recovered
    by cutting the file back to its last newline, as the README says.
    A lone surrogate, which can only sit inside a JSON string, is written as
    its ``\\uXXXX`` escape. One writer per file, or two would extend one
    head: the sink takes an exclusive ``flock`` as it is built, reads the
    ``head`` (next seq, last hash) under it from the file it locked, even if
    its path was renamed meanwhile, and holds it until ``close``. A sink in
    another process waits for it; a second one in this process, which would
    wait forever, raises AuditError. So does a torn last line, where a record
    written now would land, a line that is not a record, or a broken chain,
    which a record appended now would launder. The file is left as it is, and unlocked. ``close`` unlocks the file even
    when its fsync or its flush fails, and then raises. A record's line
    fills the line template of the module docstring: appending a tool denial
    through the sink takes about 11 µs, where the standard library's encoder
    made it about 15 µs (one pinned core of a 2-vCPU x86_64 VM, Python 3.11)."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        # Opened for reading too, so the last byte can be read under the lock.
        self._handle: TextIO = open(path, "a+", encoding="utf-8", errors="backslashreplace")
        descriptor = self._handle.fileno()
        status = os.fstat(descriptor)
        self._file = (status.st_dev, status.st_ino)
        self._unsynced = 0  # records written since the last fsync
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
            os.lseek(descriptor, 0, os.SEEK_SET)  # "a+" starts at the end; appends ignore the offset
            records = load_audit_jsonl(descriptor)  # the locked file, whatever its path names now
            first_bad = verify_chain(records)
            if first_bad is not None:
                raise AuditError(f"cannot resume a broken chain: violation at record {first_bad}")
            self.head = (len(records), records[-1].hash) if records else (0, GENESIS_PREV_HASH)
            self._has_log = False
        except BaseException:
            self.close()
            raise

    def write(self, record: AuditRecord) -> None:
        line = _jsonl_line(record)
        self._unsynced += 1  # counted first: a failed write may still leave bytes
        self._handle.write(line + "\n")
        self._handle.flush()
        if record.event == EVENT_CONNECT_ALLOW or self._unsynced >= _MAX_UNSYNCED:
            self._fsync()

    def _fsync(self) -> None:
        os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if self._handle.closed:
            return
        try:
            if self._unsynced:
                self._fsync()
        finally:
            with _HELD_MUTEX:  # first, as closing raises if it cannot flush a line a failed flush left
                _HELD.discard(self._file)
            self._handle.close()


# A JsonlAuditSink append that brings its unsynced records to this many
# fsyncs, so a crash of the machine loses fewer. The bound is a count, not a
# time: a check made at append time cannot bound an idle tail.
_MAX_UNSYNCED = 64


# The (device, inode) of each file a JsonlAuditSink in this process holds.
_HELD: set[tuple[int, int]] = set()
_HELD_MUTEX = threading.Lock()


_utcnow = functools.partial(datetime.now, timezone.utc)


class AuditLog:
    """Appender holding the chain head, from a ``JsonlAuditSink``'s ``head``
    or else genesis. ``records`` are those this log appended; each goes to
    an optional sink, and a sink failure propagates to the caller. The
    record may already be on disk then, so after a failed sink write the
    log refuses every append until it is resumed from disk (a new sink,
    then ``AuditLog(sink)``): a later record would repeat the failed one's
    seq and break the chain for ``verify_chain``. A ``JsonlAuditSink`` takes
    one log: a second would start from the same head and repeat the first's
    seqs, so it raises AuditError. So does a payload that is not flat (see
    the module docstring), before anything is written. A record is stamped
    with ``at``, the instant the gate read from ``clock`` outside the mutex
    and checked at, or else with a read of ``clock`` under the mutex; so
    timestamps may run out of seq order, and the log is ordered by seq, not
    by timestamp."""

    def __init__(
        self,
        sink: AuditSink | None = None,
        clock: Callable[[], datetime] = _utcnow,
    ) -> None:
        if isinstance(sink, JsonlAuditSink):
            with _HELD_MUTEX:
                if sink._has_log:
                    raise AuditError("the sink already has a log; a second would repeat its seqs")
                sink._has_log = True
        self._sink = sink
        self.clock = clock
        self._head: tuple[int, bytes] = getattr(sink, "head", (0, GENESIS_PREV_HASH))
        self._records: list[AuditRecord] = []
        self._mutex = threading.Lock()
        self._sink_failed = False
        # The first and last instant of the last stamped second and its text: at first an empty interval.
        self._second = (datetime.max.replace(tzinfo=timezone.utc), datetime.min.replace(tzinfo=timezone.utc), "")

    def _stamp(self, moment: datetime) -> str:
        """``format_rfc3339`` of ``moment`` in UTC, a naive one read as UTC. Called under the mutex."""
        if moment.tzinfo is not timezone.utc:
            moment = moment.replace(tzinfo=timezone.utc) if moment.tzinfo is None else moment.astimezone(timezone.utc)
        first, last, prefix = self._second
        if not first <= moment <= last:  # UTC datetimes compare exactly, to the microsecond
            first = moment.replace(microsecond=0)
            prefix = format_rfc3339(first)[:-1]  # less its "Z"
            self._second = (first, first.replace(microsecond=999_999), prefix)
        # isoformat writes no fraction when the microsecond is 0.
        return f"{prefix}.{moment.microsecond:06d}Z" if moment.microsecond else prefix + "Z"

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def append(self, event: str, payload: Mapping[str, str | None], *, at: datetime | None = None) -> AuditRecord:
        required = EVENT_PAYLOAD_FIELDS.get(event)
        if required is None:
            raise AuditError(f"unknown audit event {event!r}")
        for name in required:
            if name not in payload:
                missing = ", ".join(name for name in required if name not in payload)
                raise AuditError(f"event {event!r} payload missing fields: {missing}")
        with self._mutex:
            if self._sink_failed:
                raise AuditError("a sink write failed; resume the log from disk before appending")
            seq, prev_hash = self._head
            timestamp = self._stamp(self.clock() if at is None else at)
            stored = dict(payload)
            try:
                digest = compute_record_hash(prev_hash, seq, timestamp, event, stored)
            except TypeError as exc:
                raise AuditError(f"event {event!r} payload is not flat: {exc}") from exc
            record = _new_record((seq, timestamp, event, stored, prev_hash, digest))
            if self._sink is not None:
                self._sink_failed = True  # stays set if the write raises
                self._sink.write(record)
                self._sink_failed = False
            self._records.append(record)
            self._head = (seq + 1, digest)
            return record


def verify_chain(records: Sequence[AuditRecord]) -> int | None:
    """Check a complete log. Returns None when intact, else the index of the
    first record whose sequencing, linkage, or content hash is wrong. Content
    that is not flat has no hash, so its record is the bad index."""
    prev_hash = GENESIS_PREV_HASH
    for index, (seq, timestamp, event, payload, link, digest) in enumerate(records):
        if seq != index or link != prev_hash:
            return index
        try:
            recomputed = hashlib.sha256(link + canonical_json_bytes(seq, timestamp, event, payload)).digest()
        except TypeError:
            return index
        if recomputed != digest:
            return index
        prev_hash = digest
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
    exact = type(seq) is int and type(timestamp) is str and type(event) is str and type(payload) is dict
    if not exact or len(prev_hash) != 32 or len(digest) != 32:
        # The four refusals, in this order; an int or str subclass passes them.
        if isinstance(seq, bool) or not isinstance(seq, int):
            raise AuditError("audit record 'seq' must be an integer")
        if not isinstance(timestamp, str) or not isinstance(event, str):
            raise AuditError("audit record 'timestamp' and 'event' must be strings")
        if not isinstance(payload, dict):
            raise AuditError("audit record 'payload' must be an object")
        if len(prev_hash) != 32 or len(digest) != 32:
            raise AuditError("audit record hashes must be 32 bytes of hex")
    return _new_record((seq, timestamp, event, payload, prev_hash, digest))


def load_audit_jsonl(source: str | os.PathLike[str] | int) -> list[AuditRecord]:
    """Records of a JSONL log (``read_jsonl``'s ``source``). A line that is not a JSON record raises AuditError."""
    return [record_from_wire(data) for _, data in read_jsonl(source, AuditError)]
