"""Agent- and server-chosen text that the happy paths never carry.

JSON text can hold a lone surrogate (``"\\ud800"``), which UTF-8 cannot
encode. The properties below hold the module contracts for such strings:
canonical JSON matches the reference oracle, a dispatch is a denial value
with exactly one audit record, a JSONL log of it reloads and verifies, and
verification returns a ``Verdict`` and ``atsa sign`` keeps such a document,
and a corpus of such cases survives a JSONL dump and load and replays to a
report, from the library and from ``atsa fuzz``.
A test holds, in both flavors, that an endpoint without a registered
bridge is refused without fetching anything from it. A tool name that is
not exactly a ``str`` (any other JSON value, bytes, or a ``str`` subclass
that equals every name) is a denial value too, with one record whose
``toolName`` is null, and nothing is sent.

Outside text of any length, a tool name, an endpoint or a document's
members, enters the audit log bounded: every record's JSONL line stays
under 2 KiB, a bounded field takes at most 256 bytes of it, escapes
counted, and a bounded text keeps its size and SHA-256.

Every loader of JSON from outside the program refuses text that is not
UTF-8 or that nests past the recursion limit with its own error. The two
JSON readers give ``json.loads``' values and errors for any text, a log's
lines included, and read a line that is one value in one scan, testing it
for nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import os
import re
import tempfile
import types
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atsa import (
    AdmissionGate,
    AttestationDocument,
    AuditLog,
    CorpusCase,
    DenyReason,
    DispatchResult,
    DispatchStatus,
    DocumentError,
    FORGERY_CATEGORIES,
    Flavor,
    Gateway,
    JsonlAuditSink,
    RegistryEntry,
    RegistryError,
    SchemeError,
    ServerRegistry,
    SignerRecord,
    TOOL_CATEGORIES,
    ToolCall,
    TrustRoot,
    TrustRootError,
    Verdict,
    canonical_json_bytes,
    dump_corpus_jsonl,
    get_builtin_scheme,
    keypair_from_seed,
    levels_up_to,
    load_audit_jsonl,
    load_corpus_jsonl,
    load_registry_file,
    load_scheme,
    load_trust_root_file,
    parse_document,
    run_campaign,
    serialize_document,
    sign_document,
    verify_chain,
    verify_server_clearance,
)
from atsa import _json
from atsa.admission import MAX_DOCUMENT_BYTES, redacted
from atsa.audit import EVENT_CONNECT_DENY, EVENT_TOOL_DENY, MAX_TEXT_BYTES, bounded, record_from_wire
from atsa.cli import EXIT_OK, EXIT_VERDICT, cli, main
from atsa.conformance import KIND_ASSERTION, KIND_TOOL, CampaignReport
from atsa.gateway import TOOL_DENY_DETAIL
from conftest import FIXED_NOW, SERVER_URL, examples, fetcher_for
from doubles import CountingTransport, StaticFetcher
from reference_impl import reference_canonical, reference_read_json, reference_read_jsonl

ALLOWED = frozenset({"list_labels", "create_draft"})
SCHEME = get_builtin_scheme("default")
KEY = keypair_from_seed("surrogate-signer", bytes(range(32)))
SIGNERS = (SignerRecord(KEY.key_id, KEY.public_key, tuple(levels_up_to(SCHEME, "restricted-plus"))),)

_surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
_strings = st.text(alphabet=st.characters(exclude_categories=()) | _surrogates, max_size=8)


def _carried_by_json(text: str) -> bool:
    """Whether JSON text carries ``text`` unchanged: a high surrogate written right
    before a low one would be read back as a single astral character."""
    return json.loads(json.dumps(text)) == text


_json_strings = _strings.filter(_carried_by_json)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _strings,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_strings, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=examples(300), deadline=None)
@given(value=_json_values)
def test_canonical_json_with_surrogates_matches_oracle(value):
    assert canonical_json_bytes(value) == reference_canonical(value)


def test_surrogates_are_written_and_sorted_as_their_escapes():
    members = ["\U0001f642", "\udc00", "\\ud800", "\ud800"]
    assert canonical_json_bytes(members) == b'["\\\\ud800","\\ud800","\\udc00","\xf0\x9f\x99\x82"]'
    # By code point "]" (U+005D) sorts before U+D800, by bytes after its escape, whose backslash is 0x5C.
    assert canonical_json_bytes(["]", "\ud800"]) == b'["\\ud800","]"]'
    # Keys keep code-point order: a surrogate key sorts between U+D7FF and U+E000.
    keys = {"\ue000": 0, "\ud800": 1, "\ud7ff": 2}
    assert canonical_json_bytes(keys) == b'{"\xed\x9f\xbf":2,"\\ud800":1,"\xee\x80\x80":0}'


def _gateway(audit: AuditLog) -> tuple[Gateway, CountingTransport, StaticFetcher]:
    fetcher = StaticFetcher({})
    gate = AdmissionGate(SCHEME, TrustRoot(SIGNERS), fetcher, audit)
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
    _assert_bounded_form_of(record.payload["toolName"], name)
    assert transport.calls == 0
    assert fetcher.requests == []


class _AnyName(str):
    """A tool name that claims to equal every name, and hashes as an allowlisted one."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return hash("list_labels")


@settings(max_examples=examples(200), deadline=None)
@given(
    name=_json_values.filter(lambda value: type(value) is not str)
    | st.floats()
    | st.binary(max_size=8)
    | _strings.map(_AnyName)
)
@example(name=_AnyName("list_labels"))
def test_a_tool_name_that_is_not_exactly_a_str_is_denied_with_one_record(name):
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gateway, transport, fetcher = _gateway(audit)
    result = gateway.invoke(SERVER_URL, ToolCall(name))
    assert result.reason is DenyReason.tool_not_admitted
    assert result.detail == f"tool name of type {type(name).__name__} is {TOOL_DENY_DETAIL}"
    (record,) = audit.records
    assert (record.event, record.payload["toolName"]) == (EVENT_TOOL_DENY, None)
    assert verify_chain(audit.records) is None
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
    gate = AdmissionGate(scheme, trust_root, fetcher, audit)
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


@pytest.mark.parametrize(
    "text",
    ["{}".encode("utf-16"), "{}".encode("utf-32"), b'{"v": "\xff"}', b"[" * 200_000 + b"]" * 200_000],
    ids=["utf-16", "utf-32", "not-utf-8", "deep"],
)
@pytest.mark.parametrize(
    "load, error",
    [(parse_document, DocumentError), (load_registry_file, RegistryError),
     (load_trust_root_file, TrustRootError), (load_scheme, SchemeError)],
    ids=["document", "registry", "trust-root", "scheme"],
)
def test_every_json_loader_refuses_text_it_cannot_read_with_its_own_error(load, error, text):
    with pytest.raises(error, match="not valid JSON"):
        load(text)


# Lines a log or a file may hold: JSON values, compact or not, ASCII or not
# (a lone surrogate then encodes to bytes that are not UTF-8), and text that is
# no value, with JSON whitespace, other whitespace and a BOM around them.
_spaces = st.lists(
    st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c", b"\x1c", "\u00a0".encode(), b"\xef\xbb\xbf"]),
    max_size=2,
).map(b"".join)
_value_texts = st.builds(
    lambda value, ascii, compact: json.dumps(
        value, ensure_ascii=ascii, separators=(",", ":") if compact else None
    ).encode("utf-8", "surrogatepass"),
    _json_values, st.booleans(), st.booleans(),
)
_non_value_texts = st.sampled_from([
    b"", b"x", b"{", b'{"a":', b"[1,]", b'{"a":1} x', b'{"a":1}{"b":2}', b"01", b'"\xff"', b"\xc3",
    b"[" * 3_000 + b"]" * 3_000, b"1" * 5_000, b"NaN", b"-Infinity",
])
_lines = st.builds(operator.add, st.builds(operator.add, _spaces, _value_texts | _non_value_texts), _spaces)


class _Unread(ValueError):
    """The error the readers under test are given."""


def _outcome(read):
    """What ``read()`` gives: its value, or the class and message of what it raised."""
    try:
        return "value", repr(read())
    except Exception as exc:  # the class is compared
        return type(exc), str(exc)


@settings(max_examples=examples(200), deadline=None)
@given(lines=st.lists(_lines, max_size=6), ended=st.booleans())
@example(lines=[b'{"a":1} x', b'{"a":1}x'], ended=True)  # a scan that stops short of the end
@example(lines=[b'{"a":1}\x0b', b'{"a":1}\xc2\xa0', b'{"a":1}\r'], ended=True)  # whitespace past the value
@example(lines=[b"[" * 3_000 + b"]" * 3_000], ended=False)  # deep nesting on a torn line
def test_the_json_readers_read_each_text_as_json_loads_does(lines, ended):
    data = b"\n".join(lines) + (b"\n" if ended else b"")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        got = _outcome(lambda: list(_json.read_jsonl(path, _Unread)))
    assert got == _outcome(lambda: reference_read_jsonl(data, _Unread))
    for text in (data, *lines):
        for form in (text, text.decode("utf-8", "surrogateescape")):
            got = _outcome(lambda: _json.read_json(form, _Unread, "text"))
            assert got == _outcome(lambda: reference_read_json(form, _Unread, "text"))


def test_a_line_that_is_one_value_is_read_in_one_scan_and_tested_for_nothing_else(monkeypatch):
    tests, scans, loaded = [], [], []

    class Line(bytes):
        """A line that notes each test of it for blankness or for its final newline."""

        def strip(self, *chars):
            tests.append(("strip", bytes(self)))
            return bytes.strip(self, *chars)

        def endswith(self, *suffix):
            tests.append(("endswith", bytes(self)))
            return bytes.endswith(self, *suffix)

    decoder, loads = _json._DECODER, json.loads
    scan = types.SimpleNamespace(raw_decode=lambda text: (scans.append(text), decoder.raw_decode(text))[1])
    monkeypatch.setattr(_json, "_DECODER", scan)
    monkeypatch.setattr(json, "loads", lambda text: (loaded.append(text), loads(text))[1])

    def read(*lines):
        opened = contextlib.nullcontext(map(Line, lines))
        monkeypatch.setattr(_json, "open", lambda source, mode, closefd: opened, raising=False)
        return list(_json.read_jsonl("log.jsonl", _Unread))

    # A value before its one final newline, or alone on a torn last line.
    assert read(b'{"a":1}\n', b"[1,2]\n", b'"s"') == [(0, {"a": 1}), (1, [1, 2]), (2, "s")]
    assert _json.read_json(b"7", _Unread, "text") == 7
    assert (scans, loaded, tests) == (['{"a":1}\n', "[1,2]\n", '"s"', "7"], [], [])
    # Only a line that fails the scan is tested for blankness, and only one that fails is given its prefix.
    with pytest.raises(_Unread, match=r"^line 3: not valid JSON: Extra data: line 1 column 9 \(char 8\)$"):
        read(b"7\n", b" \n", b"\n", b'{"a":1} x\n')
    assert tests == [("strip", b" \n"), ("strip", b"\n"), ("strip", b'{"a":1} x\n'), ("endswith", b'{"a":1} x\n')]


# Outside text enters the log bounded: whole up to MAX_TEXT_BYTES, as the log
# writes it, else a prefix and the size and SHA-256 of the whole text.
LINE_BOUND = 2 * 1024
_BOUNDED = re.compile(r"(.*)…\((\d+) bytes, sha256 ([0-9a-f]{64})\)", re.DOTALL)


def _as_logged(text: str) -> bytes:
    return text.encode("utf-8", "backslashreplace")


def _escaped_size(text: str) -> int:
    """The bytes ``text`` takes inside a JSON string of a line the sink writes."""
    return len(_as_logged(json.dumps(text, ensure_ascii=False))) - 2


def _assert_bounded_form_of(logged: str, text: str) -> None:
    whole = _as_logged(text)
    assert _escaped_size(logged) <= MAX_TEXT_BYTES
    assert _carried_by_json(logged)
    if _escaped_size(text) <= MAX_TEXT_BYTES and _carried_by_json(text):
        assert logged == text
        return
    prefix, size, digest = _BOUNDED.fullmatch(logged).groups()
    assert (int(size), digest) == (len(whole), hashlib.sha256(whole).hexdigest())
    assert whole.startswith(_as_logged(prefix))


def _logged_lines(gateway: Gateway, calls: list[tuple[str, ToolCall]]) -> list[bytes]:
    """The JSONL lines a durable log gets for ``calls``, in order."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "audit.jsonl")
        sink = JsonlAuditSink(path)
        gateway.audit = gateway.gate.audit = AuditLog(sink, clock=lambda: FIXED_NOW)
        try:
            for endpoint, call in calls:
                gateway.invoke(endpoint, call)
        finally:
            sink.close()
        with open(path, "rb") as handle:
            return handle.read().splitlines()


# A short string repeated: outside text of up to tens of kilobytes.
_long_strings = st.builds(operator.mul, _json_strings, st.integers(0, 2_000))
_outside_documents = st.builds(
    AttestationDocument,
    id=_long_strings,
    publisher=_long_strings,
    version=_long_strings,
    clearance=st.sampled_from(("public", "restricted-plus", "sci")) | _long_strings,
    capabilities=st.lists(st.just("mcp-server") | _long_strings, max_size=3).map(tuple),
    net_allowed_hosts=st.none() | st.lists(st.just("tools.example") | _long_strings, max_size=2).map(tuple),
    verification=st.none() | _long_strings,
)
_ROGUE_SIGNER = "k" * 60_000  # a peer's 60,000-character signerKeyId, in every denial's detail


@settings(max_examples=examples(100), deadline=None)
@given(
    name=_long_strings,
    endpoint=_long_strings | st.builds("https://{}@{}/mcp".format, _long_strings, _long_strings),
    document=_outside_documents,
    signer=st.just(KEY.key_id) | _long_strings,
    flavor=st.sampled_from(list(Flavor)),
)
@example(
    name="t" * 8 * 1024 * 1024, endpoint="https://u:p@" + "h" * 60_000 + "/mcp",
    document=AttestationDocument("id", "p", "1", "restricted-plus", ("mcp-server",)),
    signer=_ROGUE_SIGNER, flavor=Flavor.open,
)
@example(  # the longest lines: each control character is written as six bytes
    name="\x01" * MAX_TEXT_BYTES, endpoint="\x01" * 10_000,
    document=AttestationDocument("id", "p", "1", "\x01" * 10_000, ("mcp-server",)),
    signer=KEY.key_id, flavor=Flavor.enclaved,
)
@example(  # a high surrogate right before a low one, which JSON cannot carry: cut, though short
    name="\udc00\ud800" * 2, endpoint=SERVER_URL + "x",
    document=AttestationDocument("id", "p", "1", "\udc00\ud800" * 2, ("mcp-server",)),
    signer=KEY.key_id, flavor=Flavor.open,
)
@example(  # such pairs past the bound: no raw surrogate may reach the prefix
    name="\ud800\udc00" * 200, endpoint=SERVER_URL + "x",
    document=AttestationDocument("id", "p", "1", "\ud800\udc00" * 200, ("mcp-server",)),
    signer=KEY.key_id, flavor=Flavor.enclaved,
)
def test_every_record_is_bounded_for_any_tool_name_endpoint_and_document(name, endpoint, document, signer, flavor):
    assume(name not in ALLOWED and endpoint != SERVER_URL)
    raw = _wire(replace(sign_document(document, KEY), signer_key_id=signer))
    gateway, _, _ = _gateway(AuditLog())
    gateway.flavor = flavor
    gateway.gate.fetcher = lambda url: (200, raw) if len(raw) <= MAX_DOCUMENT_BYTES else (500, b"")
    calls = [(SERVER_URL, ToolCall(name)), (endpoint, ToolCall("list_labels")), (SERVER_URL, ToolCall("list_labels"))]
    lines = _logged_lines(gateway, calls)
    assert len(lines) == 3
    assert max(map(len, lines)) < LINE_BOUND
    assert verify_chain([record_from_wire(json.loads(line)) for line in lines]) is None
    tool_deny, unregistered, connect = (json.loads(line)["payload"] for line in lines)
    _assert_bounded_form_of(tool_deny["toolName"], name)
    _assert_bounded_form_of(unregistered["detail"], f"no registered bridge for {redacted(endpoint)!r}")
    if "detail" in connect:
        verdict = verify_server_clearance(
            SERVER_URL, "restricted-plus", now=FIXED_NOW, scheme=SCHEME, trust_root=TrustRoot(SIGNERS),
            fetcher=gateway.gate.fetcher,
        )
        _assert_bounded_form_of(connect["detail"], verdict.detail)


def test_an_8_mib_tool_name_is_denied_with_a_bounded_record():
    name = "x" * (8 * 1024 * 1024)
    gateway, transport, _ = _gateway(AuditLog())
    (line,) = _logged_lines(gateway, [(SERVER_URL, ToolCall(name))])
    assert len(line) < LINE_BOUND
    logged = json.loads(line)["payload"]["toolName"]
    assert logged.endswith(f"…({len(name)} bytes, sha256 {hashlib.sha256(name.encode()).hexdigest()})")
    assert transport.calls == 0


@pytest.mark.parametrize("userinfo", ["user:secret", "secret:" + "p" * 400], ids=["short", "past-the-prefix"])
def test_an_endpoints_userinfo_reaches_neither_the_prefix_nor_the_digest(userinfo):
    endpoint = f"https://{userinfo}@{'h' * 400}.example/mcp"
    gateway, _, _ = _gateway(AuditLog())
    (line,) = _logged_lines(gateway, [(endpoint, ToolCall("list_labels"))])
    assert b"secret" not in line
    detail = f"no registered bridge for 'https://***@{'h' * 400}.example/mcp'"
    assert json.loads(line)["payload"]["detail"].endswith(f"sha256 {hashlib.sha256(detail.encode()).hexdigest()})")


@pytest.mark.parametrize(
    "text, whole",
    [("a" * MAX_TEXT_BYTES, True), ("a" * (MAX_TEXT_BYTES + 1), False),
     ("é" * (MAX_TEXT_BYTES // 2), True), ("é" * (MAX_TEXT_BYTES // 2) + "a", False),
     ("\ud800" * (MAX_TEXT_BYTES // 6), True), ("\ud800" * (MAX_TEXT_BYTES // 6 + 1), False),
     ("\U0001f642" * MAX_TEXT_BYTES, False), ("\x01" * (MAX_TEXT_BYTES - 1), False),
     ('"' * (MAX_TEXT_BYTES // 2), True), ('"' * (MAX_TEXT_BYTES // 2 + 1), False)],
    ids=["at-bound", "past-bound", "two-byte-at-bound", "two-byte-past-bound", "surrogates-at-bound",
         "surrogates-past-bound", "astral", "control-characters", "quotes-at-bound", "quotes-past-bound"],
)
def test_text_is_kept_whole_up_to_the_bound_in_the_bytes_the_log_writes(text, whole):
    assert (bounded(text) == text) is whole
    _assert_bounded_form_of(bounded(text), text)
