#!/usr/bin/env python3
"""Loopback walkthrough of the full admission path.

Mints a signing key, pins it in a trust root, signs a clearance document,
serves it from a local stub server, then drives the gateway: one allowlisted
call that dispatches and one evasion that is denied before any network write.
Finishes by replaying the audit chain.

Run: python3 scripts/demo_loopback.py [--flavor enclaved|open]
"""

from __future__ import annotations

import argparse
import json
import sys

from atsa import (
    AdmissionGate,
    AttestationDocument,
    AuditLog,
    Flavor,
    Gateway,
    HttpFetcher,
    HttpTransport,
    RegistryEntry,
    ServerRegistry,
    SignerRecord,
    StubServer,
    StubServerConfig,
    ToolCall,
    TrustRoot,
    generate_keypair,
    get_builtin_scheme,
    levels_up_to,
    sign_document,
    verify_chain,
)
from atsa.audit import record_to_wire


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flavor", choices=["enclaved", "open"], default="enclaved")
    parser.add_argument("--required", default="restricted-plus")
    args = parser.parse_args()

    scheme = get_builtin_scheme("default")
    signer = generate_keypair("demo-signer")
    document = sign_document(
        AttestationDocument(
            id="mcp.demo.loopback",
            publisher="demo-corp",
            version="1.0.0",
            clearance="restricted-plus",
            capabilities=("mcp-server",),
            net_allowed_hosts=(),
        ),
        signer,
    )
    trust_root = TrustRoot(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=levels_up_to(scheme, "restricted-plus"),
                not_after=None,
            )
        ]
    )
    trust_root.lock_trust_root()

    stub = StubServer(
        StubServerConfig.for_document(
            document,
            tool_behaviors={"list_labels": {"labels": ["inbox", "starred"]}},
        )
    ).start()
    endpoint = stub.url + "/mcp"
    print(f"stub server listening at {endpoint}")

    audit = AuditLog()
    gate = AdmissionGate(
        scheme=scheme, trust_root=trust_root, fetcher=HttpFetcher(), audit=audit
    )
    registry = ServerRegistry()
    registry.register(
        RegistryEntry(
            endpoint=endpoint,
            bridge_id="demo-bridge",
            required_clearance=args.required,
            allowed_tools=frozenset({"list_labels"}),
            transport=HttpTransport(endpoint),
        )
    )
    registry.freeze()
    gateway = Gateway(
        registry=registry, gate=gate, audit=audit, flavor=Flavor(args.flavor)
    )

    try:
        admitted = gateway.invoke(endpoint, ToolCall("list_labels", {"q": "inbox"}))
        print(f"list_labels -> {admitted.status.value}: {admitted.payload}")

        denied = gateway.invoke(
            endpoint, ToolCall("list_labels; delete_everything", {})
        )
        reason = denied.reason.value if denied.reason else "?"
        print(f"chained name -> {denied.status.value} ({reason})")
        print(f"tools/call POSTs seen by the server: {stub.tools_call_count()}")
    finally:
        stub.shutdown()

    print("audit trail:")
    for record in audit.records:
        print("  " + json.dumps(record_to_wire(record), ensure_ascii=False))
    first_bad = verify_chain(audit.records)
    print(f"chain check: {'intact' if first_bad is None else f'violation at {first_bad}'}")
    return 0 if admitted.status.value == "ok" and denied.status.value == "denied" else 1


if __name__ == "__main__":
    sys.exit(main())
