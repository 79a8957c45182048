"""The flavor rule as one table. In either flavor a call goes ahead only on an
allowed verdict, and the flavor picks only the audit record of a failure:
``mcp.connect.deny`` when enclaved, ``mcp.connect.warn`` when open. Each
entry point, the gate, the gateway and ``atsa verify --json``, is run in both
flavors on a valid document, a failing one (unsigned) and a skipped
preflight. Each run returns the same verdict in both flavors and writes
exactly one audit record, and a dispatch reaches the transport only when the
call is allowed."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from atsa import (
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    AdmissionGate,
    AuditLog,
    DenyReason,
    DispatchResult,
    Flavor,
    Gateway,
    RegistryEntry,
    ServerRegistry,
    ToolCall,
    Verdict,
    load_audit_jsonl,
    serialize_document,
)
from atsa.cli import EXIT_OK, EXIT_VERDICT, cli
from atsa.trustroot import trust_root_to_wire
from conftest import FIXED_NOW, SERVER_URL, fetcher_for
from doubles import CountingTransport

REQUIRED = "restricted-plus"
UNSIGNED_DETAIL = "document carries no signer key id and signature"

# ``atsa verify`` has no preflight opt-out, so it runs on the two documents only.
CASES = [
    (flavor, document, entry)
    for flavor in Flavor
    for document in ("valid", "unsigned", "skipped")
    for entry in ("gate", "gateway", "cli")
    if (entry, document) != ("cli", "skipped")
]


def _expected(flavor, document, key_id):
    """The verdict, the one record's event and payload, and ``atsa verify``'s
    status word, flavor note and exit code."""
    if document == "valid":
        allowed = {"level": REQUIRED, "signerKeyId": key_id}
        return Verdict.allow(REQUIRED, key_id), EVENT_CONNECT_ALLOW, allowed, ("ok", None, EXIT_OK)
    if document == "skipped":
        skipped = {"level": REQUIRED, "signerKeyId": None, "preflight": "skipped"}
        return Verdict.allow(REQUIRED, None), EVENT_CONNECT_ALLOW, skipped, None
    failed = Verdict.deny(DenyReason.unsigned, UNSIGNED_DETAIL)
    denial = {"reason": "unsigned", "detail": UNSIGNED_DETAIL}
    if flavor is Flavor.enclaved:
        return failed, EVENT_CONNECT_DENY, denial, ("denied", None, EXIT_VERDICT)
    return failed, EVENT_CONNECT_WARN, denial, ("warn", "open flavor: warn-only", EXIT_VERDICT)


@pytest.mark.parametrize("flavor, document, entry", CASES, ids=lambda value: getattr(value, "value", value))
def test_the_flavor_picks_only_the_record_of_a_failure(
    flavor, document, entry, tmp_path, scheme, trust_root, signer, baseline_doc, signed_doc
):
    verdict, event, payload, report = _expected(flavor, document, signer.key_id)
    # A skipped preflight is served the failing document, which it never fetches.
    served = signed_doc if document == "valid" else baseline_doc
    skip = document == "skipped"

    if entry == "cli":
        root_path, sad_path, audit_path = tmp_path / "root.json", tmp_path / "server.sad.json", tmp_path / "audit.jsonl"
        root_path.write_text(json.dumps(trust_root_to_wire([trust_root.find(signer.key_id)])))
        sad_path.write_text(serialize_document(served))
        result = CliRunner().invoke(cli, [
            "verify", str(sad_path), "--required", REQUIRED, "--trust-root", str(root_path),
            "--flavor", flavor.value, "--audit", str(audit_path), "--json",
        ])
        got = json.loads(result.stdout)
        reason = got["reason"] and DenyReason(got["reason"])
        assert Verdict(got["allowed"], got["clearance"], got["signerKeyId"], reason, got["detail"]) == verdict
        assert (got["status"], got["flavorNote"], result.exit_code) == report
        records = load_audit_jsonl(audit_path)
    else:
        audit = AuditLog(clock=lambda: FIXED_NOW)
        fetcher = fetcher_for(served)
        gate = AdmissionGate(scheme, trust_root, fetcher, audit)
        if entry == "gate":
            assert gate.connect(SERVER_URL, REQUIRED, flavor, skip_clearance_preflight=skip) == verdict
        else:
            transport, registry = CountingTransport(), ServerRegistry()
            registry.register(RegistryEntry(SERVER_URL, "bridge-1", REQUIRED, {"list_labels"}, transport, skip))
            registry.freeze()
            dispatched = Gateway(registry, gate, audit, flavor).invoke(SERVER_URL, ToolCall("list_labels"))
            if verdict.allowed:
                assert dispatched == DispatchResult.ok({"tool": "list_labels", "echo": {}})
            else:
                assert dispatched == DispatchResult.denied(verdict.reason, verdict.detail)
            assert transport.calls == (1 if verdict.allowed else 0)
        assert len(fetcher.requests) == (0 if skip else 1)
        records = audit.records

    assert [(record.event, record.payload) for record in records] == [(event, payload)]
