"""Ordered verification clauses, discovery, and flavor-gated connection."""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timezone

import pytest

from atsa import (
    AdmissionGate,
    AttestationDocument,
    AuditLog,
    ConnectStatus,
    DenyReason,
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    FetchError,
    Flavor,
    HttpFetcher,
    LevelNotFoundError,
    OPEN_FLAVOR_NOTE,
    SignerRecord,
    StubServerConfig,
    TrustRoot,
    WELL_KNOWN_PATHS,
    fetch_attestation,
    generate_keypair,
    get_builtin_scheme,
    host_of,
    serialize_document,
    serve,
    sign_document,
    verify_server_clearance,
)
from atsa import sad
from atsa.admission import MAX_DOCUMENT_BYTES
from conftest import FIXED_NOW, NOT_AFTER, ORIGIN, SERVER_URL, fetcher_for
from doubles import StaticFetcher


def test_host_of():
    assert host_of("https://tools.example/mcp") == "tools.example"
    assert host_of("https://Tools.Example:8443/a/b?c=d") == "tools.example"
    assert host_of("http://127.0.0.1:9000/") == "127.0.0.1"
    with pytest.raises(ValueError):
        host_of("not a url")
    with pytest.raises(ValueError):
        host_of("mailto:me@example.com")


def test_fetch_prefers_first_well_known_path(signed_doc):
    body = serialize_document(signed_doc).encode("utf-8")
    fetcher = StaticFetcher(
        {
            ORIGIN + WELL_KNOWN_PATHS[0]: body,
            ORIGIN + WELL_KNOWN_PATHS[1]: b"wrong one",
        }
    )
    assert fetch_attestation(SERVER_URL, fetcher) == body
    assert fetcher.requests == [ORIGIN + WELL_KNOWN_PATHS[0]]


def test_fetch_falls_back_on_404(signed_doc):
    body = serialize_document(signed_doc).encode("utf-8")
    fetcher = StaticFetcher({ORIGIN + WELL_KNOWN_PATHS[1]: body})
    assert fetch_attestation(SERVER_URL, fetcher) == body
    assert fetcher.requests == [
        ORIGIN + WELL_KNOWN_PATHS[0],
        ORIGIN + WELL_KNOWN_PATHS[1],
    ]


def test_fetch_paths_are_origin_rooted(signed_doc):
    body = serialize_document(signed_doc).encode("utf-8")
    fetcher = StaticFetcher({"https://deep.example" + WELL_KNOWN_PATHS[0]: body})
    assert fetch_attestation("https://deep.example/v1/rpc/endpoint?x=1", fetcher) == body


def test_fetch_double_404_fails():
    with pytest.raises(FetchError):
        fetch_attestation(SERVER_URL, StaticFetcher({}))


def test_fetch_non_404_error_is_terminal():
    calls = []

    def fetcher(url):
        calls.append(url)
        return 500, b"boom"

    with pytest.raises(FetchError):
        fetch_attestation(SERVER_URL, fetcher)
    assert calls == [ORIGIN + WELL_KNOWN_PATHS[0]]


@pytest.mark.parametrize("url", ["ftp://x.example/mcp", "/relative", "file:///etc/passwd"])
def test_fetch_rejects_non_http_urls(url):
    with pytest.raises(FetchError):
        fetch_attestation(url, StaticFetcher({}))


def _request(doc_or_bytes, scheme, trust_root, *, required="restricted-plus",
             url=SERVER_URL, now=FIXED_NOW):
    if isinstance(doc_or_bytes, AttestationDocument):
        body = serialize_document(doc_or_bytes).encode("utf-8")
    else:
        body = doc_or_bytes
    origin = url.split("/mcp")[0]
    fetcher = StaticFetcher({origin + WELL_KNOWN_PATHS[0]: body}) if body is not None else StaticFetcher({})
    return dict(
        server_url=url,
        required_level=required,
        now=now,
        scheme=scheme,
        trust_root=trust_root,
        fetcher=fetcher,
    )


def test_allow_verdict_carries_clearance_and_signer(signed_doc, scheme, trust_root, signer):
    verdict = verify_server_clearance(**_request(signed_doc, scheme, trust_root))
    assert verdict.allowed
    assert verdict.clearance == "restricted-plus"
    assert verdict.signer_key_id == signer.key_id
    assert verdict.reason is None


def test_reason_fetch_failed(scheme, trust_root):
    verdict = verify_server_clearance(**_request(None, scheme, trust_root))
    assert (verdict.allowed, verdict.reason) == (False, DenyReason.fetch_failed)


def test_reason_manifest_invalid(scheme, trust_root):
    verdict = verify_server_clearance(**_request(b"{not json", scheme, trust_root))
    assert verdict.reason == DenyReason.manifest_invalid
    wrong_version = b'{"v":2,"id":"x","publisher":"p","version":"1","clearance":"c","capabilities":[]}'
    assert verify_server_clearance(
        **_request(wrong_version, scheme, trust_root)
    ).reason == DenyReason.manifest_invalid


def test_deep_nesting_is_manifest_invalid(scheme, trust_root):
    raw = (
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c",'
        b'"capabilities":["mcp-server"],"x-deep":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    )
    verdict = verify_server_clearance(**_request(raw, scheme, trust_root))
    assert verdict.reason == DenyReason.manifest_invalid


def test_reason_not_mcp_server(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(replace(baseline_doc, capabilities=("tool.invoke",)), signer)
    verdict = verify_server_clearance(**_request(doc, scheme, trust_root))
    assert verdict.reason == DenyReason.not_mcp_server


def test_capability_match_is_exact(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(replace(baseline_doc, capabilities=("MCP-SERVER",)), signer)
    assert verify_server_clearance(
        **_request(doc, scheme, trust_root)
    ).reason == DenyReason.not_mcp_server


def test_reason_unsigned(baseline_doc, scheme, trust_root, signer):
    assert verify_server_clearance(
        **_request(baseline_doc, scheme, trust_root)
    ).reason == DenyReason.unsigned
    # a signature without a signer id is equally unsigned
    signed = sign_document(baseline_doc, signer)
    assert verify_server_clearance(
        **_request(replace(signed, signer_key_id=None), scheme, trust_root)
    ).reason == DenyReason.unsigned
    # and so is a signer id without a signature
    assert verify_server_clearance(
        **_request(replace(signed, signature=None), scheme, trust_root)
    ).reason == DenyReason.unsigned


def test_reason_signer_not_trusted(signed_doc, scheme, trust_root):
    doc = replace(signed_doc, signer_key_id="unknown-key")
    assert verify_server_clearance(
        **_request(doc, scheme, trust_root)
    ).reason == DenyReason.signer_not_trusted


def test_signer_lookup_is_case_sensitive(signed_doc, scheme, trust_root, signer):
    doc = replace(signed_doc, signer_key_id=signer.key_id.upper())
    assert verify_server_clearance(
        **_request(doc, scheme, trust_root)
    ).reason == DenyReason.signer_not_trusted


def test_reason_signer_expired(baseline_doc, scheme, signer):
    root = TrustRoot()
    root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("PUBLIC", "INTERNAL", "CONFIDENTIAL", "RESTRICTED", "RESTRICTED-PLUS"),
                not_after=datetime(2025, 1, 1, tzinfo=timezone.utc),
            )
        ]
    )
    doc = sign_document(baseline_doc, signer)
    assert verify_server_clearance(**_request(doc, scheme, root)).reason == DenyReason.signer_expired


def test_no_expiry_means_never_expires(baseline_doc, scheme, signer):
    root = TrustRoot()
    root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("RESTRICTED-PLUS",),
                not_after=None,
            )
        ]
    )
    doc = sign_document(baseline_doc, signer)
    assert verify_server_clearance(**_request(doc, scheme, root)).allowed


def test_reason_signer_not_approved(baseline_doc, scheme, signer):
    root = TrustRoot()
    root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("PUBLIC", "INTERNAL"),
                not_after=NOT_AFTER,
            )
        ]
    )
    doc = sign_document(baseline_doc, signer)  # clearance restricted-plus
    assert verify_server_clearance(
        **_request(doc, scheme, root)
    ).reason == DenyReason.signer_not_approved


def test_approval_membership_tolerates_aliases(baseline_doc, scheme, signer):
    root = TrustRoot()
    root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("SECRET",),  # alias of RESTRICTED
                not_after=NOT_AFTER,
            )
        ]
    )
    doc = sign_document(replace(baseline_doc, clearance="Restricted"), signer)
    verdict = verify_server_clearance(**_request(doc, scheme, root, required="internal"))
    assert verdict.allowed


def test_unresolvable_clearance_is_not_approved(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(replace(baseline_doc, clearance="ultra-mega"), signer)
    assert verify_server_clearance(
        **_request(doc, scheme, trust_root)
    ).reason == DenyReason.signer_not_approved


def test_reason_bad_signature(signed_doc, scheme, trust_root):
    tampered = replace(signed_doc, version="9.9.9")
    assert verify_server_clearance(
        **_request(tampered, scheme, trust_root)
    ).reason == DenyReason.bad_signature


def test_reason_below_required(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(replace(baseline_doc, clearance="internal"), signer)
    verdict = verify_server_clearance(**_request(doc, scheme, trust_root))
    assert verdict.reason == DenyReason.below_required


def test_required_level_met_by_alias(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(replace(baseline_doc, clearance="SECRET"), signer)
    verdict = verify_server_clearance(
        **_request(doc, scheme, trust_root, required="restricted")
    )
    assert verdict.allowed


def test_reason_host_not_bound(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(
        replace(baseline_doc, net_allowed_hosts=("other.example",)), signer
    )
    assert verify_server_clearance(
        **_request(doc, scheme, trust_root)
    ).reason == DenyReason.host_not_bound


def test_host_binding_matches_case_insensitively(baseline_doc, scheme, trust_root, signer):
    doc = sign_document(
        replace(baseline_doc, net_allowed_hosts=("Tools.EXAMPLE",)), signer
    )
    assert verify_server_clearance(**_request(doc, scheme, trust_root)).allowed


def test_empty_host_binding_list_binds_nothing(signed_doc, scheme, trust_root):
    # baseline carries netAllowedHosts: [], which must not restrict the host
    assert signed_doc.net_allowed_hosts == ()
    assert verify_server_clearance(**_request(signed_doc, scheme, trust_root)).allowed


def test_unresolvable_required_level_is_a_config_error(signed_doc, scheme, trust_root):
    with pytest.raises(LevelNotFoundError):
        verify_server_clearance(
            **_request(signed_doc, scheme, trust_root, required="no-such-level")
        )


# each row fails the named clause and every later one; the earliest reason wins
def test_clause_order_first_failure_wins(baseline_doc, scheme, signer):
    expired_root = TrustRoot()
    expired_root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("PUBLIC",),
                not_after=datetime(2025, 1, 1, tzinfo=timezone.utc),
            )
        ]
    )
    low_root = TrustRoot()
    low_root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("PUBLIC", "INTERNAL"),
                not_after=NOT_AFTER,
            )
        ]
    )
    full_root = TrustRoot()
    full_root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=("PUBLIC", "INTERNAL", "CONFIDENTIAL", "RESTRICTED", "RESTRICTED-PLUS"),
                not_after=NOT_AFTER,
            )
        ]
    )

    # unsigned + wrong capability + bound elsewhere: capability clause fires first
    multi = replace(
        baseline_doc,
        capabilities=("tool.invoke",),
        net_allowed_hosts=("other.example",),
    )
    assert verify_server_clearance(
        **_request(multi, scheme, full_root)
    ).reason == DenyReason.not_mcp_server

    # unknown signer + signature that cannot verify: trust lookup fires first
    unknown = replace(
        sign_document(baseline_doc, signer), signer_key_id="nobody"
    )
    assert verify_server_clearance(
        **_request(unknown, scheme, full_root)
    ).reason == DenyReason.signer_not_trusted

    # expired signer + unapproved clearance: expiry fires first
    doc = sign_document(baseline_doc, signer)
    assert verify_server_clearance(
        **_request(doc, scheme, expired_root)
    ).reason == DenyReason.signer_expired

    # unapproved clearance + tampered signature: approval fires first
    tampered = replace(sign_document(baseline_doc, signer), publisher="mallory")
    assert verify_server_clearance(
        **_request(tampered, scheme, low_root)
    ).reason == DenyReason.signer_not_approved

    # tampered signature + clearance below required: signature fires first
    low_tampered = replace(
        sign_document(replace(baseline_doc, clearance="internal"), signer),
        publisher="mallory",
    )
    assert verify_server_clearance(
        **_request(low_tampered, scheme, full_root)
    ).reason == DenyReason.bad_signature

    # below required + bound to another host: domination fires first
    low_bound = sign_document(
        replace(baseline_doc, clearance="internal", net_allowed_hosts=("other.example",)),
        signer,
    )
    assert verify_server_clearance(
        **_request(low_bound, scheme, full_root)
    ).reason == DenyReason.below_required


def test_clause_order_is_documented_observably(signed_doc, scheme, trust_root):
    # same document, demoted step by step, walks the reason codes in order
    verdict = verify_server_clearance(**_request(signed_doc, scheme, trust_root))
    assert verdict.allowed


def _cached_allow(doc, scheme, trust_root, **kwargs):
    """Verify ``doc`` twice so the second run reads the signature memo."""
    for _ in range(2):
        hits = sad._ed25519_verifies.cache_info().hits
        assert verify_server_clearance(**_request(doc, scheme, trust_root, **kwargs)).allowed
    assert sad._ed25519_verifies.cache_info().hits == hits + 1


def test_memo_keeps_clock_and_config_clauses_live(signed_doc, scheme, trust_root, signer):
    _cached_allow(signed_doc, scheme, trust_root)

    later = datetime(2028, 1, 1, tzinfo=timezone.utc)
    assert verify_server_clearance(
        **_request(signed_doc, scheme, trust_root, now=later)
    ).reason == DenyReason.signer_expired

    low_root = TrustRoot()
    low_root.set_trust_root(
        [SignerRecord(signer.key_id, signer.public_key, ("PUBLIC", "INTERNAL"), not_after=NOT_AFTER)]
    )
    assert verify_server_clearance(
        **_request(signed_doc, scheme, low_root)
    ).reason == DenyReason.signer_not_approved

    hits = sad._ed25519_verifies.cache_info().hits
    assert verify_server_clearance(
        **_request(signed_doc, scheme, trust_root, required=scheme.top)
    ).reason == DenyReason.below_required
    assert sad._ed25519_verifies.cache_info().hits == hits + 1


def test_memo_keeps_host_binding_live(baseline_doc, scheme, trust_root, signer):
    bound = sign_document(replace(baseline_doc, net_allowed_hosts=("tools.example",)), signer)
    _cached_allow(bound, scheme, trust_root)
    hits = sad._ed25519_verifies.cache_info().hits
    verdict = verify_server_clearance(
        **_request(bound, scheme, trust_root, url="https://elsewhere.example/mcp")
    )
    assert verdict.reason == DenyReason.host_not_bound
    assert sad._ed25519_verifies.cache_info().hits == hits + 1


def _padded(doc, size):
    body = serialize_document(doc).encode("utf-8")
    return body + b" " * (size - len(body))


def test_http_fetcher_caps_the_body(signed_doc, scheme, trust_root):
    at_cap = serve(StubServerConfig(sad_bytes=_padded(signed_doc, MAX_DOCUMENT_BYTES)))
    over_cap = serve(StubServerConfig(sad_bytes=_padded(signed_doc, MAX_DOCUMENT_BYTES + 1)))
    try:
        status, body = HttpFetcher(timeout=5)(at_cap.url + WELL_KNOWN_PATHS[0])
        assert (status, len(body)) == (200, MAX_DOCUMENT_BYTES)
        with pytest.raises(FetchError):
            HttpFetcher(timeout=5)(over_cap.url + WELL_KNOWN_PATHS[0])
        for stub, allowed in ((at_cap, True), (over_cap, False)):
            request = {
                **_request(None, scheme, trust_root, url=stub.url + "/mcp"),
                "fetcher": HttpFetcher(timeout=5),
            }
            verdict = verify_server_clearance(**request)
            assert verdict.allowed is allowed
            if not allowed:
                assert verdict.reason == DenyReason.fetch_failed
    finally:
        at_cap.shutdown()
        over_cap.shutdown()


def _gate(scheme, trust_root, fetcher, audit=None):
    audit = audit or AuditLog(clock=lambda: FIXED_NOW)
    return AdmissionGate(
        scheme=scheme,
        trust_root=trust_root,
        fetcher=fetcher,
        audit=audit,
        clock=lambda: FIXED_NOW,
    )


def test_connect_ok_records_allow(scheme, trust_root, fetcher, signer):
    gate = _gate(scheme, trust_root, fetcher)
    result = gate.connect(SERVER_URL, "restricted-plus", Flavor.enclaved)
    assert result.status == ConnectStatus.ok
    assert result.flavor_note is None
    (record,) = gate.audit.records
    assert record.event == EVENT_CONNECT_ALLOW
    assert record.payload == {
        "level": "restricted-plus",
        "signerKeyId": signer.key_id,
    }


def test_connect_enclaved_denies_and_records(scheme, trust_root, baseline_doc):
    gate = _gate(scheme, trust_root, fetcher_for(baseline_doc))  # unsigned doc
    result = gate.connect(SERVER_URL, "restricted-plus", Flavor.enclaved)
    assert result.status == ConnectStatus.denied
    assert result.verdict.reason == DenyReason.unsigned
    (record,) = gate.audit.records
    assert record.event == EVENT_CONNECT_DENY
    assert record.payload["reason"] == "unsigned"


def test_connect_open_warns_never_ok(scheme, trust_root, baseline_doc):
    gate = _gate(scheme, trust_root, fetcher_for(baseline_doc))
    result = gate.connect(SERVER_URL, "restricted-plus", Flavor.open)
    assert result.status == ConnectStatus.warn
    assert result.status != ConnectStatus.ok
    assert result.flavor_note == OPEN_FLAVOR_NOTE
    (record,) = gate.audit.records
    assert record.event == EVENT_CONNECT_WARN
    assert record.payload["reason"] == "unsigned"


def test_connect_open_allows_cleanly_on_success(scheme, trust_root, fetcher):
    gate = _gate(scheme, trust_root, fetcher)
    result = gate.connect(SERVER_URL, "restricted-plus", Flavor.open)
    assert result.status == ConnectStatus.ok
    assert result.flavor_note is None


def test_skip_preflight_skips_fetch_but_not_audit(scheme, trust_root, fetcher):
    gate = _gate(scheme, trust_root, fetcher)
    result = gate.connect(
        SERVER_URL, "restricted-plus", Flavor.enclaved, skip_clearance_preflight=True
    )
    assert result.status == ConnectStatus.ok
    assert fetcher.requests == []
    (record,) = gate.audit.records
    assert record.event == EVENT_CONNECT_ALLOW
    assert record.payload == {
        "level": "restricted-plus",
        "signerKeyId": None,
        "preflight": "skipped",
    }


def test_audit_append_failure_aborts_connection(scheme, trust_root, fetcher):
    class ExplodingSink:
        def write(self, record):
            raise OSError("audit volume gone")

    gate = _gate(scheme, trust_root, fetcher, AuditLog(sink=ExplodingSink()))
    with pytest.raises(OSError):
        gate.connect(SERVER_URL, "restricted-plus", Flavor.enclaved)


def test_connect_consults_fetcher_every_time(scheme, trust_root, fetcher):
    gate = _gate(scheme, trust_root, fetcher)
    for _ in range(3):
        gate.connect(SERVER_URL, "restricted-plus", Flavor.enclaved)
    assert len(fetcher.requests) == 3
