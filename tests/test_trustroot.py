"""Trust root: pinned keys, approval ceilings, and the one-way lock."""

from __future__ import annotations

import base64
import json
import sys
import threading
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from atsa import (
    SignerRecord,
    TrustRoot,
    TrustRootError,
    TrustRootLockedError,
    generate_keypair,
    get_builtin_scheme,
    load_scheme,
    load_trust_root_file,
    trust_root_to_wire,
)

NOT_AFTER = datetime(2027, 1, 1, tzinfo=timezone.utc)


def _record(key_id="k1", approved=("PUBLIC", "INTERNAL"), not_after=NOT_AFTER):
    key = generate_keypair(key_id)
    return SignerRecord(
        key_id=key_id,
        public_key=key.public_key,
        approved_clearance=tuple(approved),
        not_after=not_after,
    )


def test_set_and_find():
    root = TrustRoot()
    rec = _record()
    root.set_trust_root([rec])
    assert root.find("k1") is rec
    assert root.find("K1") is None  # key ids are case-sensitive
    assert root.find("other") is None
    assert root.key_ids() == ("k1",)


def test_set_replaces_previous_root():
    root = TrustRoot()
    root.set_trust_root([_record("a")])
    root.set_trust_root([_record("b")])
    assert root.find("a") is None
    assert root.find("b") is not None


def test_set_rejects_duplicate_key_ids():
    root = TrustRoot()
    with pytest.raises(TrustRootError):
        root.set_trust_root([_record("dup"), _record("dup")])


def test_lock_is_one_way_and_idempotent():
    root = TrustRoot()
    root.set_trust_root([_record("pinned")])
    root.lock_trust_root()
    root.lock_trust_root()  # second lock is a no-op, not an error
    with pytest.raises(TrustRootLockedError):
        root.set_trust_root([_record("intruder")])
    # the pinned root stays in force
    assert root.key_ids() == ("pinned",)


def test_lock_blocks_empty_replacement_too():
    root = TrustRoot()
    root.set_trust_root([_record()])
    root.lock_trust_root()
    with pytest.raises(TrustRootLockedError):
        root.set_trust_root([])
    assert root.key_ids() == ("k1",)


def test_approves_uses_resolved_ranks():
    scheme = get_builtin_scheme("default")
    rec = _record(approved=("public", "Internal", "SECRET"))
    # SECRET is an alias of RESTRICTED; membership is by rank
    assert rec.approves(scheme, "RESTRICTED")
    assert rec.approves(scheme, "secret")
    assert rec.approves(scheme, "CUI")  # alias of INTERNAL
    assert not rec.approves(scheme, "restricted-plus")
    assert not rec.approves(scheme, "no-such-level")


def test_approves_ignores_unresolvable_approval_entries():
    scheme = get_builtin_scheme("default")
    rec = _record(approved=("not-a-level", "public"))
    assert rec.approves(scheme, "PUBLIC")
    assert not rec.approves(scheme, "internal")


# A ladder with the builtin default scheme's name on which each shared name
# resolves to another rank: SECRET is 3 in the builtin and 0 here.
_INVERTED = load_scheme(json.dumps({"name": "default", "levels": [
    {"rank": 0, "canonicalName": "SECRET"},
    {"rank": 1, "canonicalName": "CONFIDENTIAL", "aliases": ["CUI"]},
    {"rank": 2, "canonicalName": "INTERNAL"},
    {"rank": 3, "canonicalName": "PUBLIC", "aliases": ["RESTRICTED"]},
]}))


def test_a_warm_record_approves_as_a_fresh_one_under_either_scheme():
    builtin = get_builtin_scheme("default")
    approved = ("SECRET", "internal", "not-a-level")
    record = _record(approved=approved)
    names = ["no-such-level", *(name for scheme in (builtin, _INVERTED)
                                for level in scheme.levels for name in (level.canonical_name, *level.aliases))]
    for scheme in (builtin, _INVERTED, _INVERTED, builtin, _INVERTED, builtin, builtin):
        for name in names:
            assert record.approves(scheme, name) == _record(approved=approved).approves(scheme, name), (scheme, name)
    assert record == replace(record)  # what approves keeps takes no part in equality
    narrowed = replace(record, approved_clearance=("public",))
    for scheme in (builtin, _INVERTED):
        for name in names:
            assert narrowed.approves(scheme, name) == _record(approved=("public",)).approves(scheme, name)


def test_threads_sharing_a_record_across_schemes_get_each_schemes_answer():
    # One slot holds the scheme and its ranks together, so no thread reads
    # one scheme's ranks under the other. RESTRICTED is approved only in the builtin.
    builtin, record = get_builtin_scheme("default"), _record(approved=("SECRET", "internal"))
    wrong = []

    def ask(schemes):
        for scheme in schemes * 2000:
            if record.approves(scheme, "RESTRICTED") != (scheme is builtin):
                wrong.append(scheme is builtin)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=([builtin, _INVERTED][::step],)) for step in (1, -1) * 4]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_signer_record_requires_32_byte_key():
    with pytest.raises(TrustRootError):
        SignerRecord(
            key_id="short",
            public_key=b"\x00" * 31,
            approved_clearance=("public",),
            not_after=NOT_AFTER,
        )


def _root_json(entries):
    return json.dumps({"signers": entries})


def _entry(key_id="k1", **overrides):
    key = generate_keypair(key_id)
    entry = {
        "keyId": key_id,
        "publicKey": base64.b64encode(key.public_key).decode("ascii"),
        "approvedClearance": ["public", "internal"],
        "notAfter": "2027-01-01T00:00:00Z",
    }
    entry.update(overrides)
    return entry


def test_load_trust_root_file_round_trip():
    records = load_trust_root_file(_root_json([_entry("a"), _entry("b")]))
    assert [rec.key_id for rec in records] == ["a", "b"]
    assert records[0].not_after == NOT_AFTER
    again = load_trust_root_file(json.dumps(trust_root_to_wire(records)))
    assert again == records
    root = TrustRoot()
    root.set_trust_root(records)
    assert root.key_ids() == ("a", "b")


@pytest.mark.parametrize(
    "mutation",
    [
        {"publicKey": "!!!"},
        {"publicKey": base64.b64encode(b"\x00" * 31).decode("ascii")},
        {"notAfter": "not-a-date"},
        {"notAfter": 7},
        {"approvedClearance": "public"},
        {"keyId": ""},
    ],
)
def test_load_trust_root_rejects_malformed_entries(mutation):
    with pytest.raises(TrustRootError):
        load_trust_root_file(_root_json([_entry(**mutation)]))


def test_load_trust_root_rejects_duplicate_key_ids():
    with pytest.raises(TrustRootError):
        load_trust_root_file(_root_json([_entry("same"), _entry("same")]))


def test_load_trust_root_rejects_bad_container():
    with pytest.raises(TrustRootError):
        load_trust_root_file('{"signers": "nope"}')
    with pytest.raises(TrustRootError):
        load_trust_root_file("[]")
    with pytest.raises(TrustRootError):
        load_trust_root_file(b"\xff")


def test_not_after_accepts_offset_form():
    records = load_trust_root_file(_root_json([_entry(notAfter="2027-01-01T00:00:00+00:00")]))
    assert records[0].not_after == NOT_AFTER


@pytest.mark.parametrize(
    ("fraction", "microsecond"),
    [("5", 500_000), ("25", 250_000), ("125", 125_000), ("123456", 123_456), ("123456789", 123_456)],
)
def test_not_after_reads_a_fraction_of_any_length(fraction, microsecond):
    """Python 3.10's ``fromisoformat`` alone reads only 3 or 6 digits."""
    records = load_trust_root_file(_root_json([_entry(notAfter=f"2027-01-01T00:00:00.{fraction}Z")]))
    assert records[0].not_after == NOT_AFTER.replace(microsecond=microsecond)


@pytest.mark.parametrize(
    "text",
    [
        "2027-01-01",
        "2027-01-01 00:00:00+00:00",
        "20270101T000000+00:00",
        "2027-W01-1T00:00:00+00:00",
        "2027-01-01T00:00+00:00",
        "2027-01-01T00:00:00.+00:00",
        "2027-01-01T00:00:00+0000",
        "\uff12\uff10\uff12\uff17-01-01T00:00:00Z",
    ],
    ids=["date-only", "space-separator", "basic-form", "week-date", "no-seconds", "empty-fraction",
         "offset-without-colon", "non-ascii-digits"],
)
def test_not_after_refuses_what_rfc3339_date_time_does_not_allow(text):
    with pytest.raises(TrustRootError, match="invalid RFC 3339"):
        load_trust_root_file(_root_json([_entry(notAfter=text)]))


@pytest.mark.parametrize("text", ["2027-01-01t00:00:00z", "2027-01-01T00:00:00", "2027-01-01T01:00:00+01:00"])
def test_not_after_reads_lowercase_naive_and_offset_forms(text):
    records = load_trust_root_file(_root_json([_entry(notAfter=text)]))
    assert records[0].not_after == NOT_AFTER


def test_not_after_is_optional():
    entry = _entry()
    del entry["notAfter"]
    records = load_trust_root_file(_root_json([entry]))
    assert records[0].not_after is None
