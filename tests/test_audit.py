"""Hash-chained audit log: linkage, vocabulary, durability, tamper evidence."""

from __future__ import annotations

import copy
import json
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
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
from atsa.audit import GENESIS_PREV_HASH, compute_record_hash, record_from_wire, record_to_wire
from doubles import RecordingSink
from reference_impl import reference_chain_first_bad

FIXED_NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)


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


@settings(max_examples=60, deadline=None)
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
    resumed = AuditLog.resume(list(first.records), clock=first._clock)
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
