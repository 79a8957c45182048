"""Agent- and server-chosen text that the happy paths never carry.

JSON text can hold a lone surrogate (``"\\ud800"``), which UTF-8 cannot
encode. The properties below hold the module contracts for such strings:
canonical JSON matches the reference oracle, a dispatch is a denial value
with exactly one audit record, a JSONL log of it reloads and verifies, and
verification returns a ``Verdict`` and ``atsa sign`` keeps such a document,
and a corpus of such cases survives a JSONL dump and load and replays to a
report, from the library and from ``atsa fuzz``.
A last test holds, in both flavors, that an endpoint without a registered
bridge is refused without fetching anything from it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atsa import (
    AdmissionGate,
    AttestationDocument,
    AuditLog,
    CorpusCase,
    CountingTransport,
    DenyReason,
    DispatchResult,
    DispatchStatus,
    FORGERY_CATEGORIES,
    Flavor,
    Gateway,
    JsonlAuditSink,
    RegistryEntry,
    ServerRegistry,
    SignerRecord,
    TOOL_CATEGORIES,
    ToolCall,
    TrustRoot,
    Verdict,
    canonical_json_bytes,
    dump_corpus_jsonl,
    get_builtin_scheme,
    keypair_from_seed,
    levels_up_to,
    load_audit_jsonl,
    load_corpus_jsonl,
    run_campaign,
    serialize_document,
    sign_document,
    verify_chain,
    verify_server_clearance,
)
from atsa.audit import EVENT_CONNECT_DENY, EVENT_TOOL_DENY
from atsa.cli import EXIT_OK, EXIT_VERDICT, cli, main
from atsa.conformance import KIND_ASSERTION, KIND_TOOL, CampaignReport
from conftest import FIXED_NOW, SERVER_URL, fetcher_for
from doubles import StaticFetcher
from reference_impl import reference_canonical

ALLOWED = frozenset({"list_labels", "create_draft"})
SCHEME = get_builtin_scheme("default")
KEY = keypair_from_seed("surrogate-signer", bytes(range(32)))
SIGNERS = (SignerRecord(KEY.key_id, KEY.public_key, tuple(levels_up_to(SCHEME, "restricted-plus"))),)

_surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
_strings = st.text(alphabet=st.characters(exclude_categories=()) | _surrogates, max_size=8)
# Strings that JSON text carries unchanged: a high surrogate written right
# before a low one would be read back as a single astral character.
_json_strings = _strings.filter(lambda text: json.loads(json.dumps(text)) == text)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _strings,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_strings, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(value=_json_values)
def test_canonical_json_with_surrogates_matches_oracle(value):
    assert canonical_json_bytes(value) == reference_canonical(value)


def test_surrogates_are_written_and_sorted_as_their_escapes():
    members = ["\U0001f642", "\udc00", "\\ud800", "\ud800"]
    assert canonical_json_bytes(members) == b'["\\\\ud800","\\ud800","\\udc00","\xf0\x9f\x99\x82"]'
    # Keys keep code-point order: a surrogate key sorts between U+D7FF and U+E000.
    keys = {"\ue000": 0, "\ud800": 1, "\ud7ff": 2}
    assert canonical_json_bytes(keys) == b'{"\xed\x9f\xbf":2,"\\ud800":1,"\xee\x80\x80":0}'


def _gateway(audit: AuditLog) -> tuple[Gateway, CountingTransport, StaticFetcher]:
    fetcher = StaticFetcher({})
    gate = AdmissionGate(SCHEME, TrustRoot(SIGNERS), fetcher, audit, clock=lambda: FIXED_NOW)
    transport = CountingTransport()
    registry = ServerRegistry()
    registry.register(
        RegistryEntry(
            endpoint=SERVER_URL,
            bridge_id="untrusted-input-bridge",
            required_clearance="restricted-plus",
            allowed_tools=ALLOWED,
            transport=transport,
        )
    )
    registry.freeze()
    return Gateway(registry, gate, audit, flavor=Flavor.enclaved), transport, fetcher


@settings(max_examples=200, deadline=None)
@given(name=_strings)
def test_invoke_denies_any_tool_name_with_one_record(name):
    assume(name not in ALLOWED)
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gateway, transport, fetcher = _gateway(audit)
    result = gateway.invoke(SERVER_URL, ToolCall(name))
    assert isinstance(result, DispatchResult)
    assert result.reason is DenyReason.tool_not_admitted
    (record,) = audit.records
    assert record.event == EVENT_TOOL_DENY
    assert record.payload["toolName"] == name
    assert transport.calls == 0
    assert fetcher.requests == []


@settings(max_examples=40, deadline=None)
@given(names=st.lists(_json_strings, min_size=1, max_size=4))
def test_jsonl_log_of_any_tool_names_reloads_and_verifies(names):
    assume(not ALLOWED.intersection(names))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "audit.jsonl")
        sink = JsonlAuditSink(path)
        audit = AuditLog(sink, clock=lambda: FIXED_NOW)
        gateway, _, _ = _gateway(audit)
        try:
            for name in names:
                gateway.invoke(SERVER_URL, ToolCall(name))
        finally:
            sink.close()
        loaded = load_audit_jsonl(path)
    assert verify_chain(loaded) is None
    assert tuple(loaded) == audit.records


def _verify(document_bytes: bytes) -> Verdict:
    return verify_server_clearance(
        SERVER_URL,
        "restricted-plus",
        now=FIXED_NOW,
        scheme=SCHEME,
        trust_root=TrustRoot(SIGNERS),
        fetcher=lambda url: (200, document_bytes),
    )


def _wire(document: AttestationDocument) -> bytes:
    """Document bytes as a server sends them: surrogates as JSON escapes."""
    return json.dumps(json.loads(serialize_document(document))).encode("ascii")


def test_signed_document_with_surrogate_id_verifies():
    signed = sign_document(
        AttestationDocument(
            id="\ud800",
            publisher="example-corp",
            version="1.0.0",
            clearance="restricted-plus",
            capabilities=("mcp-server",),
        ),
        KEY,
    )
    assert b'"id": "\\ud800"' in _wire(signed)
    assert _verify(_wire(signed)) == Verdict.allow("restricted-plus", KEY.key_id)
    forged = replace(signed, id="\udc00")
    assert _verify(_wire(forged)).reason is DenyReason.bad_signature


_documents = st.builds(
    AttestationDocument,
    id=_json_strings,
    publisher=_json_strings,
    version=_json_strings,
    clearance=st.sampled_from(("public", "restricted-plus", "sci")) | _json_strings,
    capabilities=st.lists(st.just("mcp-server") | _json_strings, max_size=3).map(tuple),
    net_allowed_hosts=st.none() | st.lists(_json_strings, max_size=2).map(tuple),
    verification=st.none() | _json_strings,
)


@settings(max_examples=200, deadline=None)
@given(document=_documents, tamper=st.booleans())
def test_verify_returns_verdict_for_documents_with_surrogates(document, tamper):
    signed = sign_document(document, KEY)
    if tamper:
        signed = replace(signed, signature=signed.signature[::-1])
    verdict = _verify(_wire(signed))
    assert isinstance(verdict, Verdict)
    if not tamper:
        # Signing and verifying agree on the canonical bytes of any text.
        assert verdict.reason is not DenyReason.bad_signature


_corpus_cases = st.one_of(
    st.builds(CorpusCase, st.just(KIND_TOOL), st.sampled_from(TOOL_CATEGORIES), _json_strings, _json_strings),
    st.builds(
        CorpusCase, st.just(KIND_ASSERTION), st.sampled_from(FORGERY_CATEGORIES), _json_strings, _json_strings
    ),
)


@settings(max_examples=50, deadline=None)
@given(cases=st.lists(_corpus_cases, min_size=1, max_size=4))
def test_corpus_with_surrogates_round_trips_and_replays(cases):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "corpus.jsonl")
        dump_corpus_jsonl(cases, path)
        assert load_corpus_jsonl(path) == cases
    report = run_campaign(cases, seed=1, allowlist=["list_labels"])
    assert isinstance(report, CampaignReport)
    assert sum(category.total for category in report.categories) == len(cases)


@pytest.mark.parametrize("flavor", list(Flavor))
def test_unregistered_endpoint_is_refused_without_a_fetch(scheme, trust_root, signed_doc, flavor):
    fetcher = fetcher_for(signed_doc, origin="https://rogue.example")
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gate = AdmissionGate(scheme, trust_root, fetcher, audit, clock=lambda: FIXED_NOW)
    gateway = Gateway(ServerRegistry(), gate, audit, flavor=flavor)
    result = gateway.invoke("https://rogue.example/mcp", ToolCall("list_labels"))
    assert result == DispatchResult.denied(
        DenyReason.no_registered_bridge, "no registered bridge for 'https://rogue.example/mcp'"
    )
    assert result.status is DispatchStatus.denied
    assert fetcher.requests == []
    (record,) = audit.records
    assert record.event == EVENT_CONNECT_DENY
    assert dict(record.payload) == {
        "reason": "no_registered_bridge",
        "detail": "no registered bridge for 'https://rogue.example/mcp'",
    }


def test_sign_in_place_keeps_a_document_with_a_surrogate(tmp_path):
    key_path = tmp_path / "signer.key"
    runner = CliRunner()
    assert runner.invoke(cli, ["keygen", "--out", str(key_path), "--key-id", "cli-signer"]).exit_code == EXIT_OK
    sad_path = tmp_path / "server.sad.json"
    sad_path.write_text(
        '{"v": 1, "id": "\\ud800", "publisher": "p", "version": "1",'
        ' "clearance": "restricted-plus", "capabilities": ["mcp-server"]}'
    )
    assert runner.invoke(cli, ["sign", str(sad_path), "--key", str(key_path)]).exit_code == EXIT_OK
    assert '"id": "\\ud800"' in sad_path.read_text(encoding="ascii")
    public = json.loads((tmp_path / "signer.key.pub").read_text())
    root_path = tmp_path / "root.json"
    root_path.write_text(json.dumps({"signers": [{**public, "approvedClearance": ["restricted-plus"]}]}))
    result = runner.invoke(
        cli, ["verify", str(sad_path), "--required", "restricted-plus", "--trust-root", str(root_path)]
    )
    assert result.exit_code == EXIT_OK, result.output


def test_fuzz_replays_and_writes_a_corpus_with_a_lone_surrogate(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        '{"kind":"forged_assertion","category":"malformed","input":"x\\ud800","expectation":"manifest_invalid"}\n'
        '{"kind":"tool_name","category":"near_miss","input":"\\udc00","expectation":"tool_not_admitted"}\n',
        encoding="ascii",
    )
    out_path = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as exc_info:
        main(["fuzz", "--corpus", str(corpus_path), "--corpus-out", str(out_path)])
    assert exc_info.value.code in (EXIT_OK, EXIT_VERDICT)
    assert load_corpus_jsonl(out_path) == load_corpus_jsonl(corpus_path)
