"""Hash-chained audit log: linkage, vocabulary, durability, tamper evidence,
one writer per JSONL file, the head a new sink reads after a failed append or
from mutated bytes, the record encoder against two oracles, content that is
not flat refused by both templates and by ``append``, the sink's line against
``json.dumps``, a record member of the wrong type refused, and decisions made
on many threads at once."""

from __future__ import annotations

import collections
import contextlib
import copy
import errno
import fcntl
import functools
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from atsa import (
    AdmissionGate,
    AuditError,
    AuditLog,
    DenyReason,
    DispatchResult,
    DispatchStatus,
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    EVENT_TOOL_DENY,
    Flavor,
    Gateway,
    JsonlAuditSink,
    RegistryEntry,
    ServerRegistry,
    ToolCall,
    load_audit_jsonl,
    verify_chain,
)
from atsa import audit, sad
from atsa.audit import GENESIS_PREV_HASH, AuditRecord, compute_record_hash, record_from_wire, record_to_wire
from atsa.cli import main
from atsa.gateway import TOOL_DENY_DETAIL
from atsa.trustroot import format_rfc3339
from conftest import SERVER_URL, examples, fetcher_for
from doubles import CountingTransport, RecordingSink
from reference_impl import reference_canonical, reference_chain_first_bad

FIXED_NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)
ROOT = Path(__file__).resolve().parent.parent


def _ticking_log(sink=None):
    state = {"now": FIXED_NOW}

    def clock():
        state["now"] += timedelta(seconds=1)
        return state["now"]

    return AuditLog(sink=sink, clock=clock)


def _fill(log, count=8, rng=None):
    rng = rng or random.Random(99)
    for i in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            log.append(EVENT_CONNECT_ALLOW, {"level": "internal", "signerKeyId": f"k{i}"})
        elif kind == 1:
            log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
        elif kind == 2:
            log.append(EVENT_CONNECT_WARN, {"reason": "bad_signature"})
        else:
            log.append(
                EVENT_TOOL_DENY,
                {"server": "https://x.example/mcp", "bridge": "b1",
                 "toolName": f"tool_{i}", "reason": "not in allowedTools"},
            )


def test_genesis_and_linkage():
    log = _ticking_log()
    _fill(log, 5)
    records = log.records
    assert records[0].prev_hash == GENESIS_PREV_HASH
    for i, rec in enumerate(records):
        assert rec.seq == i
        if i:
            assert rec.prev_hash == records[i - 1].hash
        assert rec.hash == compute_record_hash(
            rec.prev_hash, rec.seq, rec.timestamp, rec.event, rec.payload
        )
    assert verify_chain(records) is None


def test_timestamps_use_zulu_suffix():
    log = AuditLog(clock=lambda: FIXED_NOW)
    log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    assert log.records[0].timestamp == "2026-01-01T00:00:00Z"


def test_a_naive_moment_is_read_as_utc_in_any_local_zone(monkeypatch):
    monkeypatch.setenv("TZ", "IST-5:30")  # a POSIX zone string, which needs no zone database
    time.tzset()
    try:
        log = AuditLog(clock=lambda: datetime(2026, 1, 1, 0, 0, 0, 1))
        assert log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"}).timestamp == "2026-01-01T00:00:00.000001Z"
    finally:
        monkeypatch.undo()
        time.tzset()


def _utc_text(moment):
    """The oracle: ``format_rfc3339`` of ``moment`` in UTC, a naive one read as UTC."""
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return format_rfc3339(moment.astimezone(timezone.utc))


_UTC = timezone.utc
_EPOCH = datetime(1970, 1, 1, tzinfo=_UTC)
_NEW_YEAR = datetime(2026, 1, 1, tzinfo=_UTC)
_LAST = datetime.max.replace(tzinfo=_UTC)  # the last instant a datetime holds
_MICROSECOND = timedelta(microseconds=1)
# A moment is shown naive (read as UTC), in UTC, or at a fixed offset of under a day.
_zones = st.none() | st.just(_UTC) | st.builds(
    timezone, st.timedeltas(timedelta(hours=-23, minutes=-59), timedelta(hours=23, minutes=59))
)


@settings(max_examples=examples(100), deadline=None)
@given(
    start=st.datetimes(datetime(1, 1, 3), datetime(9999, 12, 29), timezones=st.just(_UTC)),
    steps=st.lists(st.tuples(st.timedeltas(-timedelta(seconds=2), timedelta(seconds=2)), _zones), max_size=8),
    zone=_zones,
)
@example(start=_EPOCH - _MICROSECOND, steps=[(_MICROSECOND, _UTC)], zone=_UTC)  # the epoch's microsecond is 0
# The last microsecond of a second, the next second at microsecond 0, then at
# microsecond 1: the fraction is dropped, then written.
@example(start=_NEW_YEAR - _MICROSECOND, steps=[(_MICROSECOND, None), (_MICROSECOND, _UTC)], zone=_UTC)
# Up to the last a datetime holds, through 23:59:58.999999, whose float timestamp reads a second late.
@example(start=_LAST - timedelta(seconds=2), steps=[(timedelta(seconds=1), None), (_MICROSECOND, _UTC),
                                                     (timedelta(microseconds=999_999), None)], zone=_UTC)
def test_the_per_second_stamp_is_the_clocks_text_byte_for_byte(start, steps, zone):
    log, instant = AuditLog(), start
    for step, shown in [(timedelta(0), zone), *steps]:  # consecutive instants on one log, crossing seconds both ways
        instant += step
        moment = instant.replace(tzinfo=None) if shown is None else instant.astimezone(shown)
        assert log._stamp(moment) == _utc_text(moment)


def test_append_rejects_unknown_event():
    log = _ticking_log()
    with pytest.raises(AuditError):
        log.append("mcp.connect.sideways", {"reason": "x"})


@pytest.mark.parametrize(
    "event,payload",
    [
        (EVENT_CONNECT_ALLOW, {"level": "internal"}),               # missing signerKeyId
        (EVENT_CONNECT_DENY, {}),                                    # missing reason
        (EVENT_CONNECT_WARN, {"why": "x"}),
        (EVENT_TOOL_DENY, {"server": "s", "bridge": "b", "toolName": "t"}),
    ],
)
def test_append_rejects_incomplete_payload(event, payload):
    log = _ticking_log()
    with pytest.raises(AuditError):
        log.append(event, payload)


def test_an_incomplete_payload_is_refused_naming_every_missing_field_in_order():
    log = _ticking_log()
    with pytest.raises(AuditError) as refusal:
        log.append(EVENT_TOOL_DENY, {"server": "s", "reason": "r"})
    assert str(refusal.value) == "event 'mcp.tool.deny' payload missing fields: bridge, toolName"
    assert log.records == ()


def test_allow_payload_may_carry_null_signer():
    log = _ticking_log()
    rec = log.append(
        EVENT_CONNECT_ALLOW,
        {"level": "restricted-plus", "signerKeyId": None, "preflight": "skipped"},
    )
    assert rec.payload["signerKeyId"] is None
    assert verify_chain(log.records) is None


def test_sink_failure_aborts_append():
    class ExplodingSink:
        def write(self, record):
            raise OSError("disk full")

    log = _ticking_log(sink=ExplodingSink())
    with pytest.raises(OSError):
        log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    # the failed record must not appear in memory either
    assert log.records == ()


def test_a_failed_fsync_refuses_later_appends_and_leaves_a_file_that_verifies(tmp_path, monkeypatch):
    # The line reaches the file before fsync fails, so the next append must
    # not reuse its seq; the log stays refused until it resumes from disk.
    # A denial is not fsynced, so the fault is met at the allow after it.
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    fsync = os.fsync

    def fsync_failing_once(descriptor):
        monkeypatch.setattr("atsa.audit.os.fsync", fsync)
        raise OSError(errno.EIO, "I/O error")

    try:
        log = _ticking_log(sink=sink)
        log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
        monkeypatch.setattr("atsa.audit.os.fsync", fsync_failing_once)
        with pytest.raises(OSError):
            log.append(EVENT_CONNECT_ALLOW, {"level": "internal", "signerKeyId": "k"})
        with pytest.raises(AuditError, match="resume the log from disk"):
            log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    finally:
        sink.close()
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == [0, 1]
    assert verify_chain(records) is None
    sink = JsonlAuditSink(path)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    assert verify_chain(load_audit_jsonl(path)) is None


def test_an_allow_whose_fsync_fails_raises_before_dispatch_and_poisons_the_log(tmp_path, scheme, trust_root, fetcher):
    # The denials before it are flushed, not fsynced, so the allow's fsync is
    # the first; when it fails, the call raises before the transport is used.
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    transport = CountingTransport()
    registry = ServerRegistry()
    registry.register(RegistryEntry(SERVER_URL, "bridge-1", "restricted-plus", frozenset({"list_labels"}), transport))
    log = _ticking_log(sink=sink)
    gateway = Gateway(registry, AdmissionGate(scheme, trust_root, fetcher, log), log, Flavor.enclaved)
    try:
        with mock.patch("atsa.audit.os.fsync", side_effect=OSError(errno.EIO, "I/O error")) as fsync:
            assert gateway.invoke(SERVER_URL, ToolCall("delete_all")).status is DispatchStatus.denied
            assert gateway.invoke("https://other.example/mcp", ToolCall("list_labels")).status is DispatchStatus.denied
            assert fsync.call_count == 0
            with pytest.raises(OSError):
                gateway.invoke(SERVER_URL, ToolCall("list_labels"))
        with pytest.raises(AuditError, match="resume the log from disk"):
            gateway.invoke(SERVER_URL, ToolCall("list_labels"))
        assert transport.calls == 0
    finally:
        sink.close()
    records = load_audit_jsonl(path)
    assert [record.event for record in records] == [EVENT_TOOL_DENY, EVENT_CONNECT_DENY, EVENT_CONNECT_ALLOW]
    assert verify_chain(records) is None


def test_an_allow_whose_flush_fails_raises_before_dispatch_and_poisons_the_log(tmp_path, scheme, trust_root, fetcher):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    transport = CountingTransport()
    registry = ServerRegistry()
    registry.register(RegistryEntry(SERVER_URL, "bridge-1", "restricted-plus", frozenset({"list_labels"}), transport))
    log = _ticking_log(sink=sink)
    gateway = Gateway(registry, AdmissionGate(scheme, trust_root, fetcher, log), log, Flavor.enclaved)
    try:
        with _failing(sink, "flush"), pytest.raises(OSError):
            gateway.invoke(SERVER_URL, ToolCall("list_labels"))
        with pytest.raises(AuditError, match="resume the log from disk"):
            gateway.invoke(SERVER_URL, ToolCall("list_labels"))
        assert transport.calls == 0
    finally:
        sink.close()
    records = load_audit_jsonl(path)
    assert [record.event for record in records] in ([], [EVENT_CONNECT_ALLOW])
    assert verify_chain(records) is None


def test_a_close_whose_fsync_fails_raises_and_leaves_the_file_free(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    with mock.patch("atsa.audit.os.fsync", side_effect=OSError(errno.EIO, "I/O error")):
        with pytest.raises(OSError):
            sink.close()
    assert not _locked_by_another(path)
    sink = JsonlAuditSink(path)  # not "in use by another sink in this process"
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    assert [record.seq for record in load_audit_jsonl(path)] == [0, 1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_sink_on_a_full_disk_fails_to_close_and_leaves_the_file_free(tmp_path):
    # A failed flush leaves its line in the handle's buffer, and the flush
    # that closing makes fails too; the file must still be free to resume.
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    log = AuditLog(sink)
    log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    full = os.open("/dev/full", os.O_WRONLY)
    os.dup2(full, sink._handle.fileno())  # every later write of the sink fails with ENOSPC
    os.close(full)
    with pytest.raises(OSError):
        log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    with pytest.raises(OSError):
        sink.close()
    sink = JsonlAuditSink(path)  # not "in use by another sink in this process"
    try:
        assert AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"}).seq == 1
    finally:
        sink.close()
    assert verify_chain(load_audit_jsonl(path)) is None


def test_recording_sink_sees_every_record():
    sink = RecordingSink()
    log = _ticking_log(sink=sink)
    _fill(log, 6)
    assert tuple(sink.records) == log.records


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    log = _ticking_log(sink=sink)
    _fill(log, 10)
    sink.close()
    loaded = load_audit_jsonl(path)
    assert tuple(loaded) == log.records
    assert verify_chain(loaded) is None
    # every line is standalone JSON with hex hashes
    for line in path.read_text().splitlines():
        wire = json.loads(line)
        assert set(wire) >= {"seq", "timestamp", "event", "payload", "prevHash", "hash"}
        bytes.fromhex(wire["hash"])


def test_jsonl_sink_appends_to_existing_file(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    log1 = AuditLog(sink=sink, clock=lambda: FIXED_NOW)
    log1.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    # each record is in the file when append returns, a denial too, though
    # a denial is flushed and not yet fsynced
    assert len(path.read_text().splitlines()) == 1
    log1.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    assert len(path.read_text().splitlines()) == 2
    sink.close()


# One writer per file. A child process resumes the log named by argv[1] as the
# CLI does, once a line or EOF reaches its stdin, and appends one record;
# with HOLD set it then keeps the sink open until it is killed.
RESUME_AND_APPEND = """
import os, sys, time
from atsa.audit import EVENT_CONNECT_DENY, AuditLog, JsonlAuditSink
path = sys.argv[1]
print("ready", flush=True)
sys.stdin.readline()
sink = JsonlAuditSink(path)
AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
if os.environ.get("HOLD"):
    print("appended", flush=True)
    time.sleep(60)
sink.close()
"""


def _child(script, *args, **env) -> subprocess.Popen:
    environment = {**os.environ, **env}
    environment["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=environment,
    )


def _writer(path, **env) -> subprocess.Popen:
    return _child(RESUME_AND_APPEND, path, **env)


def _genesis_file(path) -> None:
    sink = JsonlAuditSink(path)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()


def test_eight_processes_resuming_one_file_extend_one_chain(tmp_path):
    # Without the lock, each read seq 0 as the head and the file held seqs
    # [0, 1, 1, 1, 1, 1, 1, 1, 1].
    path = tmp_path / "audit.jsonl"
    _genesis_file(path)
    with contextlib.ExitStack() as stack:
        writers = [stack.enter_context(_writer(path)) for _ in range(8)]
        for writer in writers:
            stack.callback(writer.kill)  # runs before each exit waits for its child
        assert [writer.stdout.readline() for writer in writers] == ["ready\n"] * 8
        for writer in writers:  # the barrier: EOF releases all eight at once
            writer.stdin.close()
        assert [writer.wait(timeout=60) for writer in writers] == [0] * 8, [w.stderr.read() for w in writers]
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == list(range(9))
    assert verify_chain(records) is None


def test_a_second_sink_in_one_process_is_refused_until_the_first_closes(tmp_path):
    # flock locks belong to the open file, so a second sink in this process
    # would wait on the first forever.
    path = tmp_path / "audit.jsonl"
    first = JsonlAuditSink(path)
    with pytest.raises(AuditError, match="in use by another sink in this process"):
        JsonlAuditSink(path)
    first.close()
    first.close()  # a second close leaves the file free
    JsonlAuditSink(path).close()


def _locked_by_another(path) -> bool:
    with open(path, "a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
        return False


def test_a_killed_writers_file_can_be_resumed_at_once(tmp_path):
    path = tmp_path / "audit.jsonl"
    _genesis_file(path)
    with _writer(path, HOLD="1") as holder:
        try:
            assert holder.stdout.readline() == "ready\n"
            holder.stdin.close()
            assert holder.stdout.readline() == "appended\n"
            assert _locked_by_another(path)
        finally:
            holder.kill()
    assert holder.returncode == -signal.SIGKILL
    assert not _locked_by_another(path)  # the kernel dropped the lock with its holder
    sink = JsonlAuditSink(path)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == [0, 1, 2]
    assert verify_chain(records) is None


# Appends a random mix of denials and allows to the log named by argv[1],
# drawn from the seed argv[2], until it is killed; it prints each allow's seq
# once its append has returned.
APPEND_UNTIL_KILLED = """
import random, sys
from atsa.audit import EVENT_CONNECT_ALLOW, EVENT_CONNECT_DENY, AuditLog, JsonlAuditSink
rng = random.Random(sys.argv[2])
log = AuditLog(JsonlAuditSink(sys.argv[1]))
while True:
    if rng.random() < 0.25:
        print(log.append(EVENT_CONNECT_ALLOW, {"level": "internal", "signerKeyId": "k"}).seq, flush=True)
    else:
        log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
"""


@pytest.mark.parametrize("seed", range(3))
def test_every_allow_a_killed_writer_reported_is_in_its_file(tmp_path, seed):
    """SIGKILL a writer at a random moment: every allow whose append had
    returned is in the file, and the file verifies, or holds a torn tail that
    verifies once cut back to its last newline. SIGKILL covers process death
    only, where the kernel keeps every byte written; a crash of the machine
    keeps only what was fsynced, which the fsync ordering property covers."""
    rng = random.Random(seed)
    path = tmp_path / "audit.jsonl"
    with _child(APPEND_UNTIL_KILLED, path, seed) as writer:
        try:
            reported = [writer.stdout.readline() for _ in range(rng.randrange(1, 60))]
            time.sleep(rng.uniform(0, 0.01))
        finally:
            writer.kill()
        reported += writer.stdout.readlines()  # written before it died
        assert writer.wait(timeout=60) == -signal.SIGKILL, writer.stderr.read()
    data = path.read_bytes()
    complete = data[: data.rfind(b"\n") + 1]
    if complete != data:
        with pytest.raises(AuditError, match="torn final line"):
            JsonlAuditSink(path)
        path.write_bytes(complete)
    records = load_audit_jsonl(path)
    assert verify_chain(records) is None
    allows = {record.seq for record in records if record.event == EVENT_CONNECT_ALLOW}
    assert reported and {int(line) for line in reported} <= allows


def test_a_sink_on_a_torn_file_is_refused_and_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    _fill(_ticking_log(sink=sink), 3)
    sink.close()
    torn = path.read_bytes()[:-20]  # a crash mid-write of the third record
    path.write_bytes(torn)
    with pytest.raises(AuditError, match="line 2: torn final line \\(no newline\\)"):
        JsonlAuditSink(path)
    assert path.read_bytes() == torn
    assert not _locked_by_another(path)
    # Cut back to the last newline, the file takes a sink again.
    path.write_bytes(torn[: torn.rindex(b"\n") + 1])
    sink = JsonlAuditSink(path)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    assert [record.seq for record in load_audit_jsonl(path)] == [0, 1, 2]


def test_load_audit_jsonl_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(AuditError):
        load_audit_jsonl(bad)
    bad.write_text('{"seq":0}\n')
    with pytest.raises(AuditError):
        load_audit_jsonl(bad)


@pytest.mark.parametrize(
    "field, value, message",
    [("seq", "0", "audit record 'seq' must be an integer"),
     ("event", 5, "audit record 'timestamp' and 'event' must be strings"),
     ("payload", [], "audit record 'payload' must be an object"),
     ("hash", "ab" * 31, "audit record hashes must be 32 bytes of hex"),
     ("seq", True, "audit record 'seq' must be an integer")],
    ids=["string-seq", "non-string-event", "list-payload", "31-byte-hash", "bool-seq"],
)
def test_a_record_member_of_the_wrong_type_is_refused_by_the_loader_the_cli_and_a_sink(
    tmp_path, capsys, field, value, message
):
    (wire,) = _wire_log(count=1)
    path = tmp_path / "audit.jsonl"
    path.write_text(json.dumps({**wire, field: value}) + "\n")
    with pytest.raises(AuditError) as refusal:
        load_audit_jsonl(path)
    assert str(refusal.value) == message
    with pytest.raises(SystemExit) as verdict:
        main(["audit-verify", "--json", str(path)])
    assert verdict.value.code == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": message}
    with pytest.raises(AuditError) as refusal:
        JsonlAuditSink(path)
    assert str(refusal.value) == message
    assert not _locked_by_another(path)


def test_record_wire_round_trip():
    log = _ticking_log()
    _fill(log, 4)
    for rec in log.records:
        assert record_from_wire(record_to_wire(rec)) == rec


def _wire_log(count=12, seed=5):
    log = _ticking_log()
    _fill(log, count, random.Random(seed))
    return [record_to_wire(rec) for rec in log.records]


def _reload(wire):
    return [record_from_wire(w) for w in wire]


def test_tamper_payload_flip_detected_at_index():
    wire = _wire_log()
    for k in range(len(wire)):
        bad = copy.deepcopy(wire)
        bad[k]["payload"] = dict(bad[k]["payload"])
        field = sorted(bad[k]["payload"])[0]
        bad[k]["payload"][field] = "tampered"
        assert verify_chain(_reload(bad)) == k
        assert reference_chain_first_bad(bad) == k


def test_a_record_rehashed_after_its_payload_changed_breaks_the_link_to_the_next(tmp_path, capsys):
    # The changed record's own hash is right, so only the next record's
    # prevHash shows the edit.
    wire = _wire_log()
    path = tmp_path / "audit.jsonl"
    for k in range(len(wire) - 1):
        bad = copy.deepcopy(wire)
        record = record_from_wire(bad[k])
        payload = {**record.payload, sorted(record.payload)[0]: "tampered"}
        bad[k]["payload"] = payload
        bad[k]["hash"] = compute_record_hash(record.prev_hash, record.seq, record.timestamp, record.event, payload).hex()
        assert verify_chain(_reload(bad)) == k + 1
        assert reference_chain_first_bad(bad) == k + 1
        path.write_text("".join(json.dumps(w) + "\n" for w in bad))
        with pytest.raises(SystemExit) as verdict:
            main(["audit-verify", "--json", str(path)])
        assert verdict.value.code == 1
        assert json.loads(capsys.readouterr().out)["firstBadIndex"] == k + 1
        with pytest.raises(AuditError, match=f"violation at record {k + 1}$"):
            JsonlAuditSink(path)


def _relinked(records):
    """``records`` re-linked from genesis, each re-hashed, keeping its own seq."""
    relinked, prev_hash = [], GENESIS_PREV_HASH
    for record in records:
        digest = compute_record_hash(prev_hash, record.seq, record.timestamp, record.event, record.payload)
        relinked.append(record._replace(prev_hash=prev_hash, hash=digest))
        prev_hash = digest
    return relinked


def test_a_log_rechained_from_genesis_past_a_dropped_record_breaks_at_its_first_seq(tmp_path, capsys):
    # Every link and hash is right, so only the seq shows the cut; a sink on
    # the file would otherwise append a second seq 3.
    log = _ticking_log()
    _fill(log, 4)
    bad = [record_to_wire(record) for record in _relinked(log.records[1:])]
    assert [wire["seq"] for wire in bad] == [1, 2, 3]
    assert verify_chain(_reload(bad)) == 0
    assert reference_chain_first_bad(bad) == 0
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(json.dumps(w) + "\n" for w in bad))
    with pytest.raises(SystemExit) as verdict:
        main(["audit-verify", "--json", str(path)])
    assert verdict.value.code == 1
    assert json.loads(capsys.readouterr().out)["firstBadIndex"] == 0
    with pytest.raises(AuditError, match="violation at record 0$"):
        JsonlAuditSink(path)


def test_tamper_deletion_detected_at_index():
    wire = _wire_log()
    for k in range(len(wire) - 1):
        bad = wire[:k] + wire[k + 1:]
        assert verify_chain(_reload(bad)) == k
        assert reference_chain_first_bad(bad) == k


def test_tamper_insertion_detected():
    wire = _wire_log()
    n = len(wire)
    for k in range(n + 1):
        dup = copy.deepcopy(wire[min(k, n - 1)])
        bad = wire[:k] + [dup] + wire[k:]
        expected = k + 1 if k < n else n
        assert verify_chain(_reload(bad)) == expected
        assert reference_chain_first_bad(bad) == expected


def test_tamper_adjacent_swap_detected():
    wire = _wire_log()
    for k in range(len(wire) - 1):
        bad = list(wire)
        bad[k], bad[k + 1] = bad[k + 1], bad[k]
        assert verify_chain(_reload(bad)) == k
        assert reference_chain_first_bad(bad) == k


def test_verify_chain_matches_oracle_on_intact_logs():
    for seed in range(5):
        wire = _wire_log(count=9, seed=seed)
        assert verify_chain(_reload(wire)) is None
        assert reference_chain_first_bad(wire) is None


_ALLOW = (EVENT_CONNECT_ALLOW, {"level": "public", "signerKeyId": "k"})
_events = st.sampled_from(
    [
        _ALLOW,
        (EVENT_CONNECT_DENY, {"reason": "unsigned"}),
        (EVENT_CONNECT_WARN, {"reason": "host_not_bound"}),
        (
            EVENT_TOOL_DENY,
            {"server": "s", "bridge": "b", "toolName": "t", "reason": "not in allowedTools"},
        ),
    ]
)


@settings(max_examples=examples(60), deadline=None)
@given(st.lists(_events, max_size=12))
def test_any_append_sequence_verifies(entries):
    log = _ticking_log()
    for event, payload in entries:
        log.append(event, payload)
    records = log.records
    assert verify_chain(records) is None
    assert reference_chain_first_bad([record_to_wire(r) for r in records]) is None


def test_resume_continues_an_existing_chain(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    _fill(_ticking_log(sink=sink), count=5)
    sink.close()
    sink = JsonlAuditSink(path)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    records = load_audit_jsonl(path)
    assert len(records) == 6
    assert records[5].seq == 5
    assert records[5].prev_hash == records[4].hash
    assert verify_chain(records) is None


def test_resume_refuses_a_broken_chain(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    _fill(_ticking_log(sink=sink), count=4)
    sink.close()
    lines = path.read_bytes().splitlines(keepends=True)
    wire = json.loads(lines[2])
    wire["payload"] = {"reason": "tampered"}
    lines[2] = json.dumps(wire).encode() + b"\n"
    tampered = b"".join(lines)
    path.write_bytes(tampered)
    with pytest.raises(AuditError, match="record 2"):
        JsonlAuditSink(path)
    assert path.read_bytes() == tampered
    assert not _locked_by_another(path)


def test_a_log_on_a_new_sink_continues_the_files_chain(tmp_path):
    # At genesis the new log would write seqs [0, 1, 2, 0], a forged tamper
    # alarm at record 3.
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    _fill(_ticking_log(sink=sink), count=3)
    sink.close()
    sink = JsonlAuditSink(path)
    assert sink.head == (3, load_audit_jsonl(path)[2].hash)
    log = AuditLog(sink)
    appended = log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == [0, 1, 2, 3]
    assert verify_chain(records) is None
    assert log.records == (appended,) == (records[3],)


def test_a_sink_continues_the_file_it_locked_when_its_path_is_rotated_meanwhile(tmp_path, monkeypatch):
    # Read by path, the head would be the new file's (5, ...) and the append
    # would land in the rotated file as seq 5: a tamper alarm at its record 2.
    path, rotated = tmp_path / "audit.jsonl", tmp_path / "audit.jsonl.1"
    sink = JsonlAuditSink(path)
    _fill(_ticking_log(sink=sink), count=2)
    sink.close()
    head = load_audit_jsonl(path)[-1].hash
    real_flock = fcntl.flock

    def rotate_then_flock(handle, operation):
        if not rotated.exists():
            path.rename(rotated)
            sink = JsonlAuditSink(path)
            _fill(_ticking_log(sink=sink), count=5)
            sink.close()
        real_flock(handle, operation)

    monkeypatch.setattr(audit.fcntl, "flock", rotate_then_flock)
    sink = JsonlAuditSink(path)
    assert sink.head == (2, head)
    AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    records = load_audit_jsonl(rotated)
    assert [record.seq for record in records] == [0, 1, 2]
    assert verify_chain(records) is None
    assert len(load_audit_jsonl(path)) == 5


def test_a_sink_takes_one_log(tmp_path):
    # Two logs on one sink would each start from its head: seqs [0, 0].
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    try:
        log = AuditLog(sink)
        log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
        with pytest.raises(AuditError, match="the sink already has a log"):
            AuditLog(sink)
        log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    finally:
        sink.close()
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == [0, 1]
    assert verify_chain(records) is None


def test_concurrent_decisions_keep_every_audit_contract(
    tmp_path, capsys, monkeypatch, scheme, trust_root, signed_doc
):
    # Each thread calls tools of its own: an allowed one, an unlisted one and
    # one at an unregistered endpoint in turn, so every denial's record names
    # its call. With the shortest switch interval, threads interleave inside
    # the gate, the log and the sink. When a call reaches the transport, the
    # allow line its thread just wrote is within the file's fsynced size.
    threads, calls = 8, 24
    allowed = frozenset(f"t{thread}-ok-{call}" for thread in range(threads) for call in range(0, calls, 3))
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    audit = AuditLog(sink, clock=lambda: FIXED_NOW)
    transport = CountingTransport()
    registry = ServerRegistry()
    registry.register(RegistryEntry(SERVER_URL, "bridge-1", "restricted-plus", allowed, transport))
    registry.freeze()
    gate = AdmissionGate(scheme, trust_root, fetcher_for(signed_doc), audit)
    gateway = Gateway(registry, gate, audit, Flavor.enclaved)
    start = threading.Barrier(threads)
    fsynced, written = [0], threading.local()
    real_fsync, real_write, real_request = os.fsync, sink.write, transport.request

    def fsync(descriptor):
        size = os.fstat(descriptor).st_size
        real_fsync(descriptor)
        fsynced[0] = max(fsynced[0], size)

    def write(record):
        real_write(record)
        written.line = (record.event, path.stat().st_size)  # its end: appends are one at a time

    def request(payload, headers):
        event, end = written.line
        assert event == EVENT_CONNECT_ALLOW and fsynced[0] >= end
        return real_request(payload, headers)

    monkeypatch.setattr(os, "fsync", fsync)
    sink.write, transport.request = write, request

    def invoke_each(thread):
        start.wait()
        results = []
        for call in range(calls):
            endpoint, name = (
                (SERVER_URL, f"t{thread}-ok-{call}"),
                (SERVER_URL, f"t{thread}-unlisted-{call}"),
                (f"https://t{thread}-{call}.example/mcp", "list_labels"),
            )[call % 3]
            results.append((endpoint, name, gateway.invoke(endpoint, ToolCall(name))))
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = [result for future in [pool.submit(invoke_each, n) for n in range(threads)]
                       for result in future.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
        sink.close()

    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == list(range(threads * calls))
    assert verify_chain(records) is None
    assert tuple(records) == audit.records
    with pytest.raises(SystemExit) as verdict:
        main(["audit-verify", "--json", str(path)])
    assert verdict.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "records": threads * calls}

    allow = {"level": signed_doc.clearance, "signerKeyId": signed_doc.signer_key_id}
    expected = []
    for endpoint, name, result in results:
        if name in allowed:
            assert result == DispatchResult.ok({"tool": name, "echo": {}})
            expected.append((EVENT_CONNECT_ALLOW, allow))
        elif endpoint == SERVER_URL:
            assert result.reason is DenyReason.tool_not_admitted
            tool = {"server": SERVER_URL, "bridge": "bridge-1", "toolName": name, "reason": TOOL_DENY_DETAIL}
            expected.append((EVENT_TOOL_DENY, tool))
        else:
            assert result.reason is DenyReason.no_registered_bridge
            expected.append((EVENT_CONNECT_DENY, {"reason": result.reason.value, "detail": result.detail}))

    def counted(pairs):
        return collections.Counter((event, json.dumps(payload, sort_keys=True)) for event, payload in pairs)

    assert counted(expected) == counted((record.event, record.payload) for record in records)
    allows = [record for record in records if record.event == EVENT_CONNECT_ALLOW]
    assert len(transport.requests) == len(allows) == len(allowed)
    assert sorted(request["params"]["name"] for request, _ in transport.requests) == sorted(allowed)


# A sink write that fails at one append: before any byte is written, after
# half the line, at the flush of the whole line, or at fsync once the whole
# line is written. A failed flush leaves the line in the handle's buffer, and
# closing the sink writes it out. Only an append that fsyncs can fail at
# fsync: an allow, or the one that reaches the bound.
class _FailingHandle:
    def __init__(self, handle, fault):
        self._handle, self._fault = handle, fault

    def write(self, text):
        if self._fault == "partial":
            self._handle.write(text[: len(text) // 2])
            self._handle.flush()
        if self._fault in ("write", "partial"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(text)

    def flush(self):
        if self._fault == "flush":
            raise OSError(errno.EIO, "I/O error")
        return self._handle.flush()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _failing(sink, fault):
    if fault == "fsync":
        return mock.patch("atsa.audit.os.fsync", side_effect=OSError(errno.EIO, "I/O error"))
    return mock.patch.object(sink, "_handle", _FailingHandle(sink._handle, fault))


def _complete_lines(data):
    """The wire records of ``data``'s lines as the loader reads them: split at
    each newline, blank lines skipped."""
    return [json.loads(line) for line in data.split(b"\n") if line.strip()]


def _head_of(wires):
    return (len(wires), bytes.fromhex(wires[-1]["hash"])) if wires else (0, GENESIS_PREV_HASH)


@settings(max_examples=examples(60), deadline=None)
@given(entries=st.lists(_events, min_size=1, max_size=8), data=st.data(),
       fault=st.sampled_from(["write", "partial", "flush", "fsync"]))
def test_a_failed_append_leaves_a_file_that_a_fresh_sink_continues_or_refuses(entries, data, fault):
    at = data.draw(st.integers(0, len(entries) - 1), label="failing append")
    bound = audit._MAX_UNSYNCED
    if fault == "fsync":
        if data.draw(st.sampled_from(["allow", "bound"]), label="fsyncing append") == "allow":
            entries = [*entries[:at], _ALLOW, *entries[at + 1:]]
        else:  # the failing append is the one that leaves `bound` records unsynced
            allows = [i for i, (event, _) in enumerate(entries[:at]) if event == EVENT_CONNECT_ALLOW]
            bound = at - (allows[-1] + 1 if allows else 0) + 1
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.jsonl"
        sink = JsonlAuditSink(path)
        log = _ticking_log(sink=sink)
        try:
            with mock.patch.object(audit, "_MAX_UNSYNCED", bound):
                for event, payload in entries[:at]:
                    log.append(event, payload)
                with _failing(sink, fault), pytest.raises(OSError):
                    log.append(*entries[at])
            with pytest.raises(AuditError, match="resume the log from disk"):
                log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
        finally:
            sink.close()
        written = path.read_bytes()
        complete = written[: written.rfind(b"\n") + 1]
        wires = _complete_lines(complete)
        # A record may exist for the action its own failed append aborted.
        assert len(wires) in {"write": {at}, "partial": {at}, "flush": {at, at + 1}, "fsync": {at + 1}}[fault]
        assert reference_chain_first_bad(wires) is None
        if fault == "partial":
            with pytest.raises(AuditError, match=f"line {at}: torn final line"):
                JsonlAuditSink(path)
            assert path.read_bytes() == written
            path.write_bytes(complete)
        sink = JsonlAuditSink(path)
        try:
            assert sink.head == _head_of(wires)
            appended = AuditLog(sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
        finally:
            sink.close()
        assert appended.seq == len(wires)
        records = load_audit_jsonl(path)
        assert len(records) == len(wires) + 1
        assert verify_chain(records) is None


# Durability as fsync sees it: the file's size at an fsync is what that fsync
# made durable. A crash of the machine keeps every line before the largest
# such size, the synced size, and may lose any line after it.
@settings(max_examples=examples(60), deadline=None)
@given(entries=st.lists(_events, max_size=24), bound=st.integers(1, 8) | st.just(audit._MAX_UNSYNCED))
@example(entries=[(EVENT_CONNECT_DENY, {"reason": "unsigned"})] * (2 * audit._MAX_UNSYNCED + 1) + [_ALLOW],
         bound=audit._MAX_UNSYNCED)
def test_an_allow_is_synced_when_its_append_returns_and_at_most_the_bound_is_ever_unsynced(entries, bound):
    synced = [0]

    def recording_fsync(descriptor):
        synced.append(os.fstat(descriptor).st_size)

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.jsonl"
        with mock.patch("atsa.audit.os.fsync", recording_fsync), mock.patch.object(audit, "_MAX_UNSYNCED", bound):
            sink = JsonlAuditSink(path)
            try:
                log = _ticking_log(sink=sink)
                for event, payload in entries:
                    log.append(event, payload)
                    data = path.read_bytes()
                    if event == EVENT_CONNECT_ALLOW:
                        assert max(synced) >= len(data)
                    assert data[max(synced):].count(b"\n") <= bound
            finally:
                sink.close()
            assert max(synced) == path.stat().st_size


@functools.cache
def _valid_log() -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.jsonl"
        sink = JsonlAuditSink(path)
        _fill(_ticking_log(sink=sink), 5)
        sink.close()
        return path.read_bytes()


def _mutated(data, draw):
    """``data`` with one mutation drawn: a flipped bit, inserted or deleted
    bytes, lines spliced, a byte that is not UTF-8, a float or a deeply nested
    payload member, a record re-hashed after its payload changed, the records
    after a cut head re-linked from genesis, or a cut tail. A re-hash or a
    re-link needs complete lines that are records; without them ``data`` is
    left as it is."""
    kind = draw(st.sampled_from(
        ["flip", "insert", "delete", "splice", "non-utf8", "float", "nesting", "rehash", "rechain", "cut"]
    ))
    at = draw(st.integers(0, len(data)))
    if kind in ("rehash", "rechain"):
        complete = data[: data.rfind(b"\n") + 1]
        try:
            records = [record_from_wire(wire) for wire in _complete_lines(complete)]
        except (ValueError, RecursionError):  # AuditError, JSON and UTF-8 errors are ValueErrors
            return data
        if not records:
            return data
        # The record re-hashed, or the number of head records cut (one at least, all but one at most).
        k = draw(st.integers(0, len(records) - 1) if kind == "rehash" else st.integers(1, max(len(records) - 1, 1)))
        try:  # content that cannot be canonicalized has no hash to recompute
            if kind == "rehash":
                record = records[k]
                payload = {**record.payload, "detail": "tampered"}
                digest = compute_record_hash(record.prev_hash, record.seq, record.timestamp, record.event, payload)
                records[k] = record._replace(payload=payload, hash=digest)
            else:
                records = _relinked(records[k:])
        except (TypeError, RecursionError):
            return data
        lines = b"".join(json.dumps(record_to_wire(record)).encode() + b"\n" for record in records)
        return lines + data[len(complete):]
    if kind == "flip" and at < len(data):
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 8)):]
    if kind == "splice" and data:
        lines = data.splitlines(keepends=True)
        return b"".join(draw(st.lists(st.sampled_from(lines), max_size=len(lines) + 2)))
    if kind == "non-utf8":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]
    if kind in ("float", "nesting"):
        depth = draw(st.sampled_from([3, 100_000]))  # 100,000 is past the recursion limit
        member = b"1.5" if kind == "float" else b"[" * depth + b"]" * depth
        line = draw(st.integers(0, max(data.count(b"\n") - 1, 0)))
        lines = data.split(b"\n")
        lines[line] = lines[line].replace(b'"payload":{', b'"payload":{"detail":' + member + b",", 1)
        return b"\n".join(lines)
    return data[:at]


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_a_mutated_log_is_reported_or_refused_and_never_forges_a_head(data):
    mutated = _valid_log()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutated = _mutated(mutated, data.draw)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.jsonl"
        path.write_bytes(mutated)
        with pytest.raises(SystemExit) as verdict:
            main(["audit-verify", str(path)])
        assert verdict.value.code in (0, 1)
        event(f"audit-verify exit {verdict.value.code}")
        if verdict.value.code == 0:
            assert reference_chain_first_bad(_complete_lines(mutated)) is None
        try:
            sink = JsonlAuditSink(path)
        except AuditError:
            event("sink refused")
            assert path.read_bytes() == mutated
            assert not _locked_by_another(path)
            return
        sink.close()
        wires = _complete_lines(mutated)
        assert reference_chain_first_bad(wires) is None
        assert sink.head == _head_of(wires)


# The record encoder against sad.canonical_json_bytes and the reference
# encoder. Strings mix every category, lone surrogates (Cs) included, with
# characters whose escapes or encodings sort otherwise than their code points,
# and ASCII that sorts between an escaped character and its backslash.
_TRICKY = ["\x00", "\x01", "\n", "\x1f", " ", '"', "0", "A", "\\", "]", "u", "\x7f", "\ud7ff",
           "\ud800", "\udbff", "\udc00", "\udfff", "\ue000", "\uffff", "\U00010000", "\U0001f642"]
_tricky = st.sampled_from(_TRICKY)
_text = st.text(st.characters(exclude_categories=()) | st.characters(categories=("Cs",)) | _tricky, max_size=6)
# Short keys over the tricky characters alone often differ only in them.
_flat_payloads = st.dictionaries(_text | st.text(_tricky, max_size=2), st.none() | _text, max_size=6)
_flat_contents = st.fixed_dictionaries(
    {"seq": st.integers(), "timestamp": _text, "event": st.sampled_from(sorted(audit.EVENT_PAYLOAD_FIELDS)) | _text,
     "payload": _flat_payloads}
)


@settings(deadline=None)
@given(content=_flat_contents)
# Every tricky character as a key: any order but code-point order shows here.
@example(content={"seq": 7, "timestamp": "\ud800", "event": "\x00",
                  "payload": {key: key for key in _TRICKY} | {"": None}})
def test_record_encoder_matches_canonical_json_and_the_oracle(content):
    encoded = audit.canonical_json_bytes(**content)
    assert encoded == sad.canonical_json_bytes(content)
    assert encoded == reference_canonical(content)


class _Text(str):
    pass


# Payloads that are not flat, each with the field a connect denial needs.
_NOT_FLAT_PAYLOADS = {
    "mixed-keys-int-first": {1: "a", "reason": "r"},
    "mixed-keys-int-last": {"reason": "r", 1: "a"},
    "str-subclass-key": {"reason": "r", _Text("k"): "v"},
    "str-subclass-value": {"reason": _Text("r")},
    "int-value": {"reason": "r", "count": 7},
    "bool-value": {"reason": "r", "flag": True},
    "float": {"reason": "r", "k": 1.5},
    "nested-value": {"reason": "r", "k": {"n": "v"}},
    "list-value": {"reason": "r", "k": ["v"]},
}
_FLAT = {"seq": 1, "timestamp": "t", "event": EVENT_CONNECT_DENY, "payload": {"reason": "r"}}
_NOT_FLAT_CONTENTS = {
    **{name: {**_FLAT, "payload": payload} for name, payload in _NOT_FLAT_PAYLOADS.items()},
    "int-key": {**_FLAT, "payload": {1: "a"}},
    "str-subclass-timestamp": {**_FLAT, "timestamp": _Text("t")},
    "str-subclass-event": {**_FLAT, "event": _Text(EVENT_CONNECT_DENY)},
    "bool-seq": {**_FLAT, "seq": True},
    "float-seq": {**_FLAT, "seq": 1.0},
    "another-mapping": {**_FLAT, "payload": collections.OrderedDict(reason="r")},
}


@pytest.mark.parametrize("content", _NOT_FLAT_CONTENTS.values(), ids=_NOT_FLAT_CONTENTS.keys())
def test_content_that_is_not_flat_raises_type_error_from_both_templates(tmp_path, content):
    with pytest.raises(TypeError):
        audit.canonical_json_bytes(**content)
    record = AuditRecord(**content, prev_hash=bytes(32), hash=bytes(32))
    sink = JsonlAuditSink(tmp_path / "audit.jsonl")
    try:
        with pytest.raises(TypeError):
            sink.write(record)
    finally:
        sink.close()
    assert (tmp_path / "audit.jsonl").read_bytes() == b""


_NOT_FLAT_APPENDS = {
    **{name: (EVENT_CONNECT_DENY, payload) for name, payload in _NOT_FLAT_PAYLOADS.items()},
    "str-subclass-event": (_Text(EVENT_CONNECT_DENY), {"reason": "r"}),
}


@pytest.mark.parametrize("event, payload", _NOT_FLAT_APPENDS.values(), ids=_NOT_FLAT_APPENDS.keys())
def test_append_refuses_a_payload_that_is_not_flat_and_writes_nothing(tmp_path, event, payload):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(path)
    log = _ticking_log(sink)
    _fill(log, 3)
    before = (path.read_bytes(), log.records)
    with pytest.raises(AuditError, match="payload is not flat"):
        log.append(event, payload)
    assert (path.read_bytes(), log.records) == before
    # The head did not move: the next record continues the chain from the last.
    record = log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    assert (record.seq, record.prev_hash) == (3, before[1][-1].hash)
    sink.close()
    assert verify_chain(load_audit_jsonl(path)) is None


def test_a_log_whose_record_holds_an_int_value_is_bad_at_that_record(tmp_path, capsys):
    # Each record is hashed as canonical JSON of its dict, so only record 1's int value makes it bad.
    wires, prev_hash = [], GENESIS_PREV_HASH
    for seq, payload in enumerate([{"reason": "unsigned"}, {"reason": "unsigned", "count": 7}, {"reason": "expired"}]):
        content = {"seq": seq, "timestamp": "2026-01-01T00:00:00Z", "event": EVENT_CONNECT_DENY, "payload": payload}
        digest = hashlib.sha256(prev_hash + sad.canonical_json_bytes(content)).digest()
        wires.append({**content, "prevHash": prev_hash.hex(), "hash": digest.hex()})
        prev_hash = digest
    assert reference_chain_first_bad(wires) is None
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(json.dumps(wire) + "\n" for wire in wires))
    assert verify_chain(load_audit_jsonl(path)) == 1
    with pytest.raises(SystemExit) as verdict:
        main(["audit-verify", str(path)])
    assert verdict.value.code == 1
    assert capsys.readouterr().err == "chain violation at record 1\n"
    with pytest.raises(AuditError, match="violation at record 1$"):
        JsonlAuditSink(path)
    assert not _locked_by_another(path)


def _nested_past_the_recursion_limit():
    value = []
    for _ in range(sys.getrecursionlimit() + 10):
        value = [value]
    return value


@pytest.mark.parametrize("member", [1.5, _nested_past_the_recursion_limit()], ids=["float", "deep-nesting"])
def test_a_record_whose_payload_cannot_be_canonicalized_is_the_first_bad_index(member):
    log = _ticking_log()
    _fill(log, 4)
    records = list(log.records)
    records[2] = records[2]._replace(payload={**records[2].payload, "detail": member})
    assert verify_chain(records) == 2


@settings(max_examples=examples(100), deadline=None)
@given(content=_flat_contents,
       prev_hash=st.binary(min_size=32, max_size=32), digest=st.binary(min_size=32, max_size=32))
# A lone high surrogate, a joined pair, a quote, a backslash, controls, non-ASCII and a null value.
@example(content={"seq": 3, "timestamp": "\ud800", "event": EVENT_TOOL_DENY,
                  "payload": {"toolName": "\ud83d\ude42\"\\\x00\x1f\x7f\u00e9", "\udfff": None, "": "\U0001f642"}},
         prev_hash=bytes(32), digest=bytes(range(32)))
def test_the_sinks_line_is_json_dumps_of_the_wire_record(content, prev_hash, digest):
    record = AuditRecord(**content, prev_hash=prev_hash, hash=digest)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.jsonl"
        sink = JsonlAuditSink(path)
        try:
            sink.write(record)
        finally:
            sink.close()
        line = json.dumps(record_to_wire(record), ensure_ascii=False, separators=(",", ":")) + "\n"
        assert path.read_bytes() == line.encode("utf-8", "backslashreplace")
