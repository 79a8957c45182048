"""Acceptance gate: one test per criterion, one pass/fail line under -v.

Each test states its budget (runtime, case counts, tolerances) inline and
fails rather than degrade. Expected values come from the frozen golden bytes
and the independent reference implementation, never from the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from copy import deepcopy
from urllib.parse import urlsplit

import pytest
from click.testing import CliRunner

from atsa import (
    AdmissionGate,
    AuditLog,
    BUILTIN_SCHEME_NAMES,
    ConnectStatus,
    CountingTransport,
    DenyReason,
    DispatchStatus,
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    EVENT_TOOL_DENY,
    Flavor,
    FORGERY_CATEGORIES,
    Gateway,
    HttpFetcher,
    HttpTransport,
    RegistryEntry,
    SchemeError,
    ServerRegistry,
    SignerRecord,
    StubServerConfig,
    TOOL_CATEGORIES,
    ToolCall,
    TrustRoot,
    TrustRootLockedError,
    WELL_KNOWN_PATHS,
    build_vectors,
    canonical_body,
    generate_corpus,
    get_builtin_scheme,
    load_scheme,
    parse_document,
    run_campaign,
    serve,
    verify_chain,
    verify_server_clearance,
)
from atsa.audit import record_from_wire, record_to_wire
from atsa.cli import cli
from atsa.conformance import KIND_TOOL, VECTOR_NOW
from conftest import FIXED_NOW, SERVER_URL, fetcher_for
from doubles import StaticFetcher
from reference_impl import (
    reference_chain_first_bad,
    reference_sad_body,
    random_sad_wire_text,
)

GOLDEN_BODY = (
    b'{"capabilities":["mcp-server"],"clearance":"restricted-plus",'
    b'"id":"mcp.example.gmail","netAllowedHosts":[],"publisher":"example-corp",'
    b'"signerKeyId":"S","v":1,"version":"2.3.1"}'
)

EXPECTED_VECTOR_VERDICTS = {
    1: "admit",
    2: "not_mcp_server",
    3: "unsigned",
    4: "signer_not_trusted",
    5: "signer_expired",
    6: "signer_not_approved",
    7: "bad_signature",
    8: "bad_signature",
    9: "below_required",
    10: "host_not_bound",
    11: "admit",
}


def test_criterion_01_conformance_vectors_all_pass_under_5s():
    started = time.monotonic()
    result = CliRunner().invoke(cli, ["vectors", "--json"])
    elapsed = time.monotonic() - started
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["summary"] == "11/11 pass"
    got = {entry["index"]: entry["got"] for entry in report["vectors"]}
    assert got == EXPECTED_VECTOR_VERDICTS
    assert all(entry["passed"] for entry in report["vectors"])
    assert elapsed < 5.0, f"vectors took {elapsed:.2f}s"


# Hand-written evasion suite: >= 31 cases spanning every tool-name category.
EVASION_CASES = [
    ("whitespace_control", "list_labels "),
    ("whitespace_control", " list_labels"),
    ("whitespace_control", "list_labels" + chr(10)),
    ("whitespace_control", "list" + chr(9) + "labels"),
    ("whitespace_control", "list_labels" + chr(0)),
    ("separator_chaining", "list_labels; delete_everything"),
    ("separator_chaining", "list_labels && curl evil.example"),
    ("separator_chaining", "list_labels|create_draft"),
    ("separator_chaining", "create_draft; drop table users"),
    ("near_miss", "list_label"),
    ("near_miss", "list_labels2"),
    ("near_miss", "listlabels"),
    ("near_miss", "create_drafts"),
    ("path_traversal", "../list_labels"),
    ("path_traversal", "list_labels/../delete_everything"),
    ("path_traversal", "./list_labels"),
    ("path_traversal", "/list_labels"),
    ("homoglyph_zero_width_rtl", "list_l" + chr(0x0430) + "bels"),
    ("homoglyph_zero_width_rtl", "list_" + chr(0x200B) + "labels"),
    ("homoglyph_zero_width_rtl", chr(0x202E) + "list_labels"),
    ("homoglyph_zero_width_rtl", "creat" + chr(0x0435) + "_draft"),
    ("case_variant", "LIST_LABELS"),
    ("case_variant", "List_Labels"),
    ("case_variant", "list_Labels"),
    ("case_variant", "CREATE_DRAFT"),
    ("prototype_probe", "__proto__"),
    ("prototype_probe", "constructor"),
    ("prototype_probe", "list_labels.__proto__"),
    ("prototype_probe", "toString"),
    ("json_smuggling", '{"name":"list_labels"}'),
    ("json_smuggling", '"list_labels"'),
    ("json_smuggling", 'list_labels","admin":true'),
    ("json_smuggling", '["list_labels"]'),
    ("unclassified", "delete_everything"),
    ("unclassified", "admin"),
    ("unclassified", "sudo rm"),
    ("unclassified", ""),
]


def test_criterion_02_handwritten_evasions_all_denied_then_two_admitted(
    scheme, trust_root, signed_doc
):
    allowlist = frozenset({"list_labels", "create_draft"})
    assert len(EVASION_CASES) >= 31
    assert {category for category, _ in EVASION_CASES} == set(TOOL_CATEGORIES)
    assert not any(name in allowlist for _, name in EVASION_CASES)

    fetcher = fetcher_for(signed_doc)
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gate = AdmissionGate(
        scheme=scheme, trust_root=trust_root, fetcher=fetcher, audit=audit,
        clock=lambda: FIXED_NOW,
    )
    transport = CountingTransport(
        {"list_labels": {"labels": []}, "create_draft": {"draftId": "d-1"}}
    )
    registry = ServerRegistry()
    registry.register(
        RegistryEntry(
            endpoint=SERVER_URL,
            bridge_id="bridge-1",
            required_clearance="restricted-plus",
            allowed_tools=allowlist,
            transport=transport,
        )
    )
    registry.freeze()
    gateway = Gateway(registry=registry, gate=gate, audit=audit, flavor=Flavor.enclaved)

    for _category, name in EVASION_CASES:
        result = gateway.invoke(SERVER_URL, ToolCall(name, {}))
        assert result.status == DispatchStatus.denied, name
        assert result.reason == DenyReason.tool_not_admitted, name
    assert transport.calls == 0

    deny_records = [r for r in audit.records if r.event == EVENT_TOOL_DENY]
    assert len(deny_records) == len(EVASION_CASES)
    assert [r.payload["toolName"] for r in deny_records] == [n for _, n in EVASION_CASES]

    for name in ("list_labels", "create_draft"):
        result = gateway.invoke(SERVER_URL, ToolCall(name, {}))
        assert result.status == DispatchStatus.ok, name
    assert transport.calls == 2


def test_criterion_03_seeded_campaign_denies_everything_under_60s():
    allowlist = ["list_labels", "create_draft"]
    started = time.monotonic()
    cases = generate_corpus(3, allowlist, per_category=200)
    report = run_campaign(cases, seed=3, allowlist=allowlist)
    elapsed = time.monotonic() - started

    tool_inputs = {c.input for c in cases if c.kind == KIND_TOOL}
    forged = [c for c in cases if c.kind != KIND_TOOL]
    assert len(tool_inputs) >= 1500
    assert len(forged) >= 500

    assert report.passed, report.render_text()
    assert report.network_writes == 0
    for outcome in report.categories:
        assert outcome.admitted == 0, outcome
        assert outcome.denied == outcome.total, outcome
    # empty mismatch list == every forged assertion denied at its targeted clause
    assert report.mismatches == ()
    assert elapsed < 60.0, f"campaign took {elapsed:.2f}s"


def test_criterion_04_flavor_semantics_audit_exactness(
    scheme, trust_root, baseline_doc, signed_doc, signer
):
    def connect(doc, flavor):
        audit = AuditLog(clock=lambda: FIXED_NOW)
        gate = AdmissionGate(
            scheme=scheme, trust_root=trust_root, fetcher=fetcher_for(doc),
            audit=audit, clock=lambda: FIXED_NOW,
        )
        return gate.connect(SERVER_URL, "restricted-plus", flavor), audit.records

    denied, records = connect(baseline_doc, Flavor.enclaved)
    assert denied.status == ConnectStatus.denied
    assert [r.event for r in records] == [EVENT_CONNECT_DENY]
    assert records[0].payload["reason"] == "unsigned"

    warned, records = connect(baseline_doc, Flavor.open)
    assert warned.status == ConnectStatus.warn
    assert warned.status != ConnectStatus.ok
    assert [r.event for r in records] == [EVENT_CONNECT_WARN]

    allowed, records = connect(signed_doc, Flavor.enclaved)
    assert allowed.status == ConnectStatus.ok
    assert [r.event for r in records] == [EVENT_CONNECT_ALLOW]
    assert records[0].payload == {
        "level": "restricted-plus",
        "signerKeyId": signer.key_id,
    }


def test_criterion_05_locked_trust_root_survives_100_set_attempts():
    vector4 = build_vectors()[3]
    assert vector4.index == 4
    root = TrustRoot(vector4.signers)
    before_ids = root.key_ids()
    root.lock_trust_root()

    rng = random.Random(11)
    scheme = get_builtin_scheme("default")
    level_names = [level.canonical_name for level in scheme.levels]
    attempts = 0
    for _ in range(100):
        candidate = [
            SignerRecord(
                key_id="intruder-" + format(rng.getrandbits(40), "x"),
                public_key=rng.randbytes(32),
                approved_clearance=tuple(
                    rng.sample(level_names, k=rng.randint(0, len(level_names)))
                ),
                not_after=None,
            )
            for _ in range(rng.randint(0, 3))
        ]
        with pytest.raises(TrustRootLockedError):
            root.set_trust_root(candidate)
        attempts += 1
    assert attempts == 100
    assert root.key_ids() == before_ids

    origin = "{0.scheme}://{0.netloc}".format(urlsplit(vector4.server_url))
    verdict = verify_server_clearance(
        vector4.server_url,
        vector4.required_level,
        now=VECTOR_NOW,
        scheme=scheme,
        trust_root=root,
        fetcher=StaticFetcher({origin + WELL_KNOWN_PATHS[0]: vector4.document_bytes}),
    )
    assert not verdict.allowed
    assert verdict.reason == DenyReason.signer_not_trusted


def _hundred_record_wire():
    tick = itertools.count()
    clock = lambda: FIXED_NOW.replace(second=0).replace(
        minute=next(tick) % 60, hour=12
    )  # noqa: E731 - distinct timestamps without a mutable fixture
    log = AuditLog(clock=clock)
    shapes = [
        lambda i: (EVENT_CONNECT_ALLOW, {"level": f"level-{i}", "signerKeyId": f"key-{i}"}),
        lambda i: (EVENT_CONNECT_DENY, {"reason": "unsigned", "detail": f"case-{i}"}),
        lambda i: (EVENT_CONNECT_WARN, {"reason": "host_not_bound", "detail": f"warn-{i}"}),
        lambda i: (
            EVENT_TOOL_DENY,
            {"server": "s", "bridge": "b", "toolName": f"tool-{i}", "reason": "not admitted"},
        ),
    ]
    for i in range(100):
        event, payload = shapes[i % 4](i)
        log.append(event, payload)
    return [record_to_wire(record) for record in log.records]


def _reload(wire):
    return [record_from_wire(item) for item in wire]


def _assert_detected_at(mutated, expected_index):
    assert verify_chain(_reload(mutated)) == expected_index
    assert reference_chain_first_bad(mutated) == expected_index


def test_criterion_06_audit_tamper_detected_at_correct_first_index():
    wire = _hundred_record_wire()
    count = len(wire)
    assert count == 100
    assert verify_chain(_reload(wire)) is None
    assert reference_chain_first_bad(wire) is None

    for k in range(count):  # one-byte flip inside record k
        mutated = deepcopy(wire)
        if k % 2 == 0:
            stamp = mutated[k]["timestamp"]
            mutated[k]["timestamp"] = stamp[:3] + chr(ord(stamp[3]) ^ 1) + stamp[4:]
        else:
            field = sorted(mutated[k]["payload"])[0]
            value = mutated[k]["payload"][field]
            mutated[k]["payload"][field] = chr(ord(value[0]) ^ 1) + value[1:]
        _assert_detected_at(mutated, k)

    for k in range(count - 1):  # deletion of any non-final record
        mutated = deepcopy(wire)
        del mutated[k]
        _assert_detected_at(mutated, k)

    for k in range(count + 1):  # insertion of a replayed record at any position
        mutated = deepcopy(wire)
        mutated.insert(k, deepcopy(wire[min(k, count - 1)]))
        _assert_detected_at(mutated, min(k + 1, count))

    for k in range(count - 1):  # adjacent reordering
        mutated = deepcopy(wire)
        mutated[k], mutated[k + 1] = mutated[k + 1], mutated[k]
        _assert_detected_at(mutated, k)


def test_criterion_07_canonicalization_matches_oracle_on_1000_documents():
    scrambled = (
        '{"version":"2.3.1","signerKeyId":"S","capabilities":["mcp-server"],"v":1,'
        '"netAllowedHosts":[],"publisher":"example-corp","clearance":"restricted-plus",'
        '"id":"mcp.example.gmail"}'
    )
    assert canonical_body(parse_document(scrambled.encode("utf-8"))) == GOLDEN_BODY
    assert reference_sad_body(json.loads(scrambled)) == GOLDEN_BODY

    rng = random.Random(1234)
    checked = 0
    for _ in range(1000):
        text = random_sad_wire_text(rng)
        implementation = canonical_body(parse_document(text.encode("utf-8")))
        reference = reference_sad_body(json.loads(text))
        assert implementation == reference, text
        checked += 1
    assert checked == 1000


_CASINGS = (str, str.upper, str.lower, str.swapcase)


def test_criterion_08_lattice_laws_hold_for_every_builtin_scheme():
    for scheme_name in BUILTIN_SCHEME_NAMES:
        scheme = get_builtin_scheme(scheme_name)
        levels = scheme.levels
        names = [level.canonical_name for level in levels]

        for a in names:
            assert scheme.meets(a, a), (scheme_name, a)
        for a, b in itertools.product(levels, repeat=2):
            assert scheme.meets(a.canonical_name, b.canonical_name) or scheme.meets(
                b.canonical_name, a.canonical_name
            )
        for a, b, c in itertools.product(names, repeat=3):
            if scheme.meets(a, b) and scheme.meets(b, c):
                assert scheme.meets(a, c), (scheme_name, a, b, c)

        for a, b in itertools.product(levels, repeat=2):
            expected = a.rank >= b.rank
            forms_a = (a.canonical_name,) + a.aliases
            forms_b = (b.canonical_name,) + b.aliases
            for fa, fb in itertools.product(forms_a, forms_b):
                for casing_a, casing_b in itertools.product(_CASINGS, repeat=2):
                    assert scheme.meets(casing_a(fa), casing_b(fb)) is expected, (
                        scheme_name, casing_a(fa), casing_b(fb),
                    )


NON_CONTIGUOUS_FIXTURES = (
    [(0, "LOW", []), (2, "HIGH", [])],
    [(1, "LOW", []), (2, "HIGH", [])],
    [(0, "LOW", []), (1, "MID", []), (1, "HIGH", [])],
    [(5, "ONLY", [])],
)


def test_criterion_08b_non_contiguous_rank_fixtures_rejected():
    for levels in NON_CONTIGUOUS_FIXTURES:
        raw = json.dumps(
            {
                "name": "broken",
                "levels": [
                    {"rank": rank, "canonicalName": name, "aliases": aliases}
                    for rank, name, aliases in levels
                ],
            }
        )
        with pytest.raises(SchemeError):
            load_scheme(raw)


def test_criterion_09_end_to_end_loopback_with_zero_denied_posts():
    vector1 = build_vectors()[0]
    assert vector1.expect_allow
    stub = serve(
        StubServerConfig(
            sad_bytes=vector1.document_bytes,
            tool_behaviors={"echo": lambda arguments: {"echo": dict(arguments)}},
        )
    )
    try:
        endpoint = stub.url + "/mcp"
        audit = AuditLog(clock=lambda: VECTOR_NOW)
        gate = AdmissionGate(
            scheme=get_builtin_scheme("default"),
            trust_root=TrustRoot(vector1.signers),
            fetcher=HttpFetcher(),
            audit=audit,
            clock=lambda: VECTOR_NOW,
        )
        registry = ServerRegistry()
        registry.register(
            RegistryEntry(
                endpoint=endpoint,
                bridge_id="loopback",
                required_clearance=vector1.required_level,
                allowed_tools=frozenset({"echo"}),
                transport=HttpTransport(endpoint),
            )
        )
        registry.freeze()
        gateway = Gateway(registry=registry, gate=gate, audit=audit, flavor=Flavor.enclaved)

        connect = gate.connect(endpoint, vector1.required_level, Flavor.enclaved)
        assert connect.status == ConnectStatus.ok

        admitted = gateway.invoke(endpoint, ToolCall("echo", {"hello": "world"}))
        assert admitted.status == DispatchStatus.ok
        assert admitted.payload == {"echo": {"hello": "world"}}
        assert stub.tools_call_count() == 1
        assert stub.counters.get("GET " + WELL_KNOWN_PATHS[0], 0) >= 1

        counters_before = stub.counters
        denied = gateway.invoke(endpoint, ToolCall("delete_everything", {}))
        assert denied.status == DispatchStatus.denied
        assert denied.reason == DenyReason.tool_not_admitted
        assert stub.tools_call_count() == 1
        assert stub.counters == counters_before  # denial reached the network zero times

        deny_events = [r.event for r in audit.records if r.event == EVENT_TOOL_DENY]
        assert deny_events == [EVENT_TOOL_DENY]
    finally:
        stub.shutdown()
