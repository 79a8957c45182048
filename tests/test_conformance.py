"""Conformance vectors, the seeded adversarial corpus, and the campaign."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from atsa import (
    AuditLog,
    DenyReason,
    Verdict,
    build_vectors,
    dump_corpus_jsonl,
    generate_corpus,
    load_corpus_jsonl,
    parse_document,
    run_campaign,
    run_vectors,
    verify_server_clearance,
    verify_signature,
)
from atsa import sad
from atsa.conformance import (
    CorpusCase,
    FORGERY_CATEGORIES,
    KIND_ASSERTION,
    KIND_TOOL,
    TOOL_CATEGORIES,
    VECTOR_NOW,
    VECTOR_REQUIRED_LEVEL,
    write_vector_fixtures,
)
from conftest import FIXED_NOW

ALLOWLIST = ["list_labels", "create_draft"]

EXPECTED_VECTOR_REASONS = [
    (1, None),
    (2, DenyReason.not_mcp_server),
    (3, DenyReason.unsigned),
    (4, DenyReason.signer_not_trusted),
    (5, DenyReason.signer_expired),
    (6, DenyReason.signer_not_approved),
    (7, DenyReason.bad_signature),
    (8, DenyReason.bad_signature),
    (9, DenyReason.below_required),
    (10, DenyReason.host_not_bound),
    (11, None),
]


@pytest.fixture(scope="module")
def vectors():
    return build_vectors()


def test_vector_set_shape(vectors):
    assert [v.index for v in vectors] == list(range(1, 12))
    assert [(v.index, v.expect_reason) for v in vectors] == EXPECTED_VECTOR_REASONS
    for v in vectors:
        assert v.expect_allow == (v.expect_reason is None)
        assert v.required_level == VECTOR_REQUIRED_LEVEL


def test_all_vectors_pass_production_verifier(vectors):
    report = run_vectors(vectors)
    assert report.passed
    assert report.summary == "11/11 pass"
    lines = report.lines()
    assert len(lines) == 12  # one per vector plus the summary
    assert lines[0].startswith("vector 01 PASS")
    assert all(" PASS " in line for line in lines[:11])
    assert lines[-1] == "11/11 pass"


def test_vector_verdicts_unchanged_by_a_warm_signature_memo(vectors):
    sad._ed25519_verifies.cache_clear()
    cold = run_vectors(vectors)
    warm = run_vectors(vectors)
    assert sad._ed25519_verifies.cache_info().hits > 0
    assert warm == cold
    assert warm.passed


def _signer_key(vector):
    return vector.signers[0].public_key


def test_each_deny_vector_isolates_its_clause(vectors):
    by_index = {v.index: v for v in vectors}
    baseline = parse_document(by_index[1].document_bytes)

    # capability vector is properly re-signed: only the capability is wrong
    v2 = parse_document(by_index[2].document_bytes)
    assert "mcp-server" not in v2.capabilities
    assert verify_signature(v2, _signer_key(by_index[2]))

    # unsigned vector: same body, signature stripped
    v3 = parse_document(by_index[3].document_bytes)
    assert v3.signature is None and v3.signer_key_id is not None

    # unknown-signer vector: signature retained, key id swapped after signing
    v4 = parse_document(by_index[4].document_bytes)
    assert v4.signer_key_id == "unknown"
    assert v4.signature is not None

    # expiry and approval vectors reuse the valid document untouched;
    # only the trust root differs
    assert by_index[5].document_bytes == by_index[1].document_bytes
    assert by_index[6].document_bytes == by_index[1].document_bytes
    (rec5,) = by_index[5].signers
    assert rec5.not_after < VECTOR_NOW
    (rec6,) = by_index[6].signers
    assert "restricted-plus" not in {name.lower() for name in rec6.approved_clearance}

    # flipped-signature vector differs from baseline in exactly the signature
    v7 = parse_document(by_index[7].document_bytes)
    assert replace(v7, signature=None) == replace(baseline, signature=None)
    assert v7.signature != baseline.signature
    diffs = sum(a != b for a, b in zip(v7.signature, baseline.signature))
    assert diffs == 1 and len(v7.signature) == len(baseline.signature)

    # post-signing upgrade: restoring the signed clearance revalidates
    v8 = parse_document(by_index[8].document_bytes)
    assert v8.clearance == "restricted-plus"
    assert not verify_signature(v8, _signer_key(by_index[8]))
    assert verify_signature(replace(v8, clearance="internal"), _signer_key(by_index[8]))

    # below-required vector is honestly signed at the lower level
    v9 = parse_document(by_index[9].document_bytes)
    assert v9.clearance == "internal"
    assert verify_signature(v9, _signer_key(by_index[9]))

    # host-binding pair shares one document; only the serving origin differs
    assert by_index[10].document_bytes == by_index[11].document_bytes
    v10 = parse_document(by_index[10].document_bytes)
    assert v10.net_allowed_hosts == ("a.example",)
    assert by_index[10].server_url.startswith("https://b.example")
    assert by_index[11].server_url.startswith("https://a.example")


def test_vectors_are_deterministic_given_a_key():
    from atsa import keypair_from_seed

    key = keypair_from_seed("S", bytes(range(32)))
    a = build_vectors(signing_key=key)
    b = build_vectors(signing_key=key)
    assert [v.document_bytes for v in a] == [v.document_bytes for v in b]


def _verifier_without(disabled_reason):
    # simulates a verifier missing one clause: when only that clause would
    # have denied, the faulty verifier admits
    def verifier(server_url, required_level, **kwargs):
        verdict = verify_server_clearance(server_url, required_level, **kwargs)
        if verdict.reason == disabled_reason:
            from urllib.parse import urlsplit

            parts = urlsplit(server_url)
            origin = f"{parts.scheme}://{parts.netloc}"
            _, body = kwargs["fetcher"](origin + "/.well-known/mcp-attestation")
            doc = parse_document(body)
            return Verdict.allow(doc.clearance, doc.signer_key_id)
        return verdict

    return verifier


def test_disabled_domination_clause_is_caught(vectors):
    report = run_vectors(vectors, verifier=_verifier_without(DenyReason.below_required))
    assert not report.passed
    failing = [o.vector.index for o in report.outcomes if not o.passed]
    assert failing == [9]
    line = next(l for l in report.lines() if " FAIL " in l)
    assert "vector 09" in line


def test_disabled_capability_clause_is_caught(vectors):
    report = run_vectors(vectors, verifier=_verifier_without(DenyReason.not_mcp_server))
    assert not report.passed
    failing = [o.vector.index for o in report.outcomes if not o.passed]
    assert failing == [2]


def test_write_vector_fixtures(tmp_path, vectors):
    manifest_path = write_vector_fixtures(vectors, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["vectors"]) == 11
    for entry in manifest["vectors"]:
        if entry.get("document") is not None:
            payload = (tmp_path / entry["document"]).read_bytes()
            parse_document(payload)


def test_corpus_is_deterministic():
    a = generate_corpus(7, ALLOWLIST, per_category=10)
    b = generate_corpus(7, ALLOWLIST, per_category=10)
    assert a == b
    c = generate_corpus(8, ALLOWLIST, per_category=10)
    assert a != c


def test_corpus_counts_and_coverage():
    per = 12
    cases = generate_corpus(3, ALLOWLIST, per_category=per)
    tool_cases = [c for c in cases if c.kind == KIND_TOOL]
    forged = [c for c in cases if c.kind == KIND_ASSERTION]
    assert len(tool_cases) == per * len(TOOL_CATEGORIES)
    assert len(forged) == per * len(FORGERY_CATEGORIES)
    assert {c.category for c in tool_cases} == set(TOOL_CATEGORIES)
    assert {c.category for c in forged} == set(FORGERY_CATEGORIES)


def test_corpus_tool_names_unique_and_never_allowlisted():
    cases = [c for c in generate_corpus(5, ALLOWLIST, per_category=25) if c.kind == KIND_TOOL]
    names = [c.input for c in cases]
    assert len(set(names)) == len(names)
    assert not set(names) & set(ALLOWLIST)


def test_corpus_anchor_cases_present():
    cases = generate_corpus(1, ALLOWLIST, per_category=5)
    inputs = {c.input for c in cases if c.kind == KIND_TOOL}
    assert "list_labels; delete_everything" in inputs
    assert "LIST_LABELS" in inputs
    assert "__proto__" in inputs
    assert '{"name":"list_labels"}' in inputs


def test_corpus_jsonl_round_trip(tmp_path):
    cases = generate_corpus(2, ALLOWLIST, per_category=4)
    path = tmp_path / "corpus.jsonl"
    dump_corpus_jsonl(cases, path)
    assert load_corpus_jsonl(path) == cases


def test_corpus_jsonl_rejects_unknown_category(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"category": "made-up", "input": "x"}\n')
    with pytest.raises(ValueError):
        load_corpus_jsonl(path)


def test_campaign_denies_everything_and_writes_nothing():
    cases = generate_corpus(11, ALLOWLIST, per_category=8)
    report = run_campaign(cases, seed=11, allowlist=ALLOWLIST)
    assert report.passed
    assert report.admitted == 0
    assert report.network_writes == 0
    assert report.denied == len(cases)
    assert report.tool_denials_audited == sum(1 for c in cases if c.kind == KIND_TOOL)
    assert not report.mismatches


def test_campaign_checks_targeted_clause_per_forgery():
    cases = [c for c in generate_corpus(4, ALLOWLIST, per_category=6) if c.kind == KIND_ASSERTION]
    report = run_campaign(cases, seed=4, allowlist=ALLOWLIST)
    assert report.passed
    by_cat = {r.category: r for r in report.categories}
    for category in FORGERY_CATEGORIES:
        assert by_cat[category].denied == 6


def test_campaign_flags_mislabeled_expectation():
    cases = generate_corpus(6, ALLOWLIST, per_category=3)
    target = next(i for i, c in enumerate(cases)
                  if c.kind == KIND_ASSERTION and c.category == "unsigned")
    cases[target] = replace(cases[target], expectation="bad_signature")
    report = run_campaign(cases, seed=6, allowlist=ALLOWLIST)
    assert not report.passed
    assert report.mismatches


def test_campaign_counter_catches_a_real_dispatch():
    # a deliberately allowlisted name smuggled into the corpus must show up
    # as an admitted call and a network write, failing the campaign
    cases = generate_corpus(9, ALLOWLIST, per_category=2)
    cases.append(
        CorpusCase(kind=KIND_TOOL, category="near_miss", input="list_labels",
                   expectation="tool_not_admitted")
    )
    report = run_campaign(cases, seed=9, allowlist=ALLOWLIST)
    assert not report.passed
    assert report.admitted == 1
    assert report.network_writes == 1


def test_campaign_report_rendering_is_stable():
    cases = generate_corpus(12, ALLOWLIST, per_category=3)
    first = run_campaign(cases, seed=12, allowlist=ALLOWLIST)
    second = run_campaign(cases, seed=12, allowlist=ALLOWLIST)
    assert first.render_text() == second.render_text()
    assert first.to_json() == second.to_json()
    text = first.render_text()
    for category in TOOL_CATEGORIES + FORGERY_CATEGORIES:
        assert category in text
    assert "result: PASS" in text


def test_campaign_audit_chain_verifies():
    from atsa import verify_chain

    audit = AuditLog(clock=lambda: FIXED_NOW)
    cases = generate_corpus(13, ALLOWLIST, per_category=2)
    run_campaign(cases, seed=13, allowlist=ALLOWLIST, audit=audit)
    assert len(audit.records) > 0
    assert verify_chain(audit.records) is None
