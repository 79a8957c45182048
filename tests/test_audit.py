"""Hash-chained audit log: linkage, vocabulary, durability, tamper evidence,
one writer per JSONL file, and the record encoder against two oracles."""

from __future__ import annotations

import contextlib
import copy
import errno
import fcntl
import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atsa import (
    AuditError,
    AuditLog,
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    EVENT_TOOL_DENY,
    JsonlAuditSink,
    load_audit_jsonl,
    verify_chain,
)
from atsa import audit, sad
from atsa.audit import GENESIS_PREV_HASH, compute_record_hash, record_from_wire, record_to_wire
from conftest import examples
from doubles import RecordingSink
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
            log.append(EVENT_CONNECT_DENY, {"reason": "bad_signature"})
        with pytest.raises(AuditError, match="resume the log from disk"):
            log.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    finally:
        sink.close()
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == [0, 1]
    assert verify_chain(records) is None
    sink = JsonlAuditSink(path)
    AuditLog.resume(records, sink=sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
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
    # a later process continues the same file; chain restarts are not implied,
    # so feed the prior tail back in as the resume point
    assert len(path.read_text().splitlines()) == 1
    log1.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    assert len(path.read_text().splitlines()) == 2
    sink.close()


# One writer per file. A child process resumes the log named by argv[1] as the
# CLI does, once a line or EOF reaches its stdin, and appends one record;
# with HOLD set it then keeps the sink open until it is killed.
RESUME_AND_APPEND = """
import os, sys, time
from atsa.audit import EVENT_CONNECT_DENY, AuditLog, JsonlAuditSink, load_audit_jsonl
path = sys.argv[1]
print("ready", flush=True)
sys.stdin.readline()
sink = JsonlAuditSink(path)
AuditLog.resume(load_audit_jsonl(path), sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
if os.environ.get("HOLD"):
    print("appended", flush=True)
    time.sleep(60)
sink.close()
"""


def _writer(path, **env) -> subprocess.Popen:
    environment = {**os.environ, **env}
    environment["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", RESUME_AND_APPEND, str(path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=environment,
    )


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
    AuditLog.resume(load_audit_jsonl(path), sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    sink.close()
    records = load_audit_jsonl(path)
    assert [record.seq for record in records] == [0, 1, 2]
    assert verify_chain(records) is None


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
    AuditLog.resume(load_audit_jsonl(path), sink).append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
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


_events = st.sampled_from(
    [
        (EVENT_CONNECT_ALLOW, {"level": "public", "signerKeyId": "k"}),
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


def test_resume_continues_an_existing_chain():
    first = _ticking_log()
    _fill(first, count=5)
    resumed = AuditLog.resume(list(first.records))
    resumed.append(EVENT_CONNECT_DENY, {"reason": "unsigned"})
    records = resumed.records
    assert len(records) == 6
    assert records[5].seq == 5
    assert records[5].prev_hash == records[4].hash
    assert verify_chain(records) is None


def test_resume_refuses_a_broken_chain():
    log = _ticking_log()
    _fill(log, count=4)
    records = list(log.records)
    records[2] = replace(records[2], payload={"reason": "tampered"})
    with pytest.raises(AuditError, match="record 2"):
        AuditLog.resume(records)


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
_members = st.recursive(
    st.none() | st.booleans() | st.integers() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
# Each leaves the template: an int, bool or nested payload value, or a bool seq.
_other_contents = st.fixed_dictionaries(
    {"seq": st.integers() | st.booleans(), "timestamp": _text, "event": _text,
     "payload": st.dictionaries(_text, _members, max_size=4)}
)


@settings(deadline=None)
@given(content=_flat_contents | _other_contents)
# Every tricky character as a key: any order but code-point order shows here.
@example(content={"seq": 7, "timestamp": "\ud800", "event": "\x00",
                  "payload": {key: key for key in _TRICKY} | {"": None}})
def test_record_encoder_matches_canonical_json_and_the_oracle(content):
    encoded = audit.canonical_json_bytes(content)
    assert encoded == sad.canonical_json_bytes(content)
    assert encoded == reference_canonical(content)


@settings(deadline=None)
@given(
    content=_flat_contents,
    key=st.integers() | st.booleans() | st.none() | st.tuples(_text),
)
def test_record_encoder_refuses_a_non_string_payload_key_as_canonical_json_does(content, key):
    content["payload"][key] = "value"
    with pytest.raises(TypeError, match="object keys must be strings"):
        sad.canonical_json_bytes(content)
    with pytest.raises(TypeError, match="object keys must be strings"):
        audit.canonical_json_bytes(content)


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
    records[2] = replace(records[2], payload={**records[2].payload, "detail": member})
    assert verify_chain(records) == 2
