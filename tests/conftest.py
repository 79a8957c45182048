"""Shared fixtures: a signer, a trusted root, a baseline document, and a
static fetcher serving it from a fake origin."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from atsa import (
    AdmissionGate,
    AttestationDocument,
    AuditLog,
    SignerRecord,
    TrustRoot,
    WELL_KNOWN_PATHS,
    generate_keypair,
    get_builtin_scheme,
    levels_up_to,
    serialize_document,
    sign_document,
)
from doubles import StaticFetcher

FIXED_NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)
NOT_AFTER = datetime(2027, 1, 1, tzinfo=timezone.utc)
ORIGIN = "https://tools.example"
SERVER_URL = ORIGIN + "/mcp"


@pytest.fixture
def scheme():
    return get_builtin_scheme("default")


@pytest.fixture
def signer():
    return generate_keypair("test-signer")


@pytest.fixture
def baseline_doc():
    return AttestationDocument(
        id="mcp.example.gmail",
        publisher="example-corp",
        version="2.3.1",
        clearance="restricted-plus",
        capabilities=("mcp-server",),
        net_allowed_hosts=(),
    )


@pytest.fixture
def signed_doc(baseline_doc, signer):
    return sign_document(baseline_doc, signer)


@pytest.fixture
def trust_root(scheme, signer):
    root = TrustRoot()
    root.set_trust_root(
        [
            SignerRecord(
                key_id=signer.key_id,
                public_key=signer.public_key,
                approved_clearance=tuple(levels_up_to(scheme, "restricted-plus")),
                not_after=NOT_AFTER,
            )
        ]
    )
    return root


def fetcher_for(doc: AttestationDocument, origin: str = ORIGIN) -> StaticFetcher:
    body = serialize_document(doc).encode("utf-8")
    return StaticFetcher({origin + WELL_KNOWN_PATHS[0]: body})


@pytest.fixture
def fetcher(signed_doc):
    return fetcher_for(signed_doc)


@pytest.fixture
def audit_log():
    return AuditLog(clock=lambda: FIXED_NOW)


@pytest.fixture
def gate(scheme, trust_root, fetcher, audit_log):
    return AdmissionGate(
        scheme=scheme,
        trust_root=trust_root,
        fetcher=fetcher,
        audit=audit_log,
        clock=lambda: FIXED_NOW,
    )
