"""Shared fixtures: a signer, a trusted root, a baseline document, a static
fetcher serving it from a fake origin, and a count of Ed25519 checks."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import settings

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
from atsa import admission
from doubles import StaticFetcher

# A longer search for CI (``--hypothesis-profile=ci``): ten times the default
# profile's examples. Tier-1 runs the default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)


def examples(count: int) -> int:
    """A property's own ``max_examples``: ``count`` under the default profile,
    scaled as the loaded profile scales the default's 100."""
    return count * settings.default.max_examples // 100

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
    )


@pytest.fixture
def checks(monkeypatch):
    """The public key of every Ed25519 check ``verify_server_clearance`` makes, from an empty document cache."""
    checked = []
    verify = admission.verify_signature

    def counting(document, public_key):
        checked.append(public_key)
        return verify(document, public_key)

    monkeypatch.setattr(admission, "verify_signature", counting)
    admission._parsed.cache_clear()
    return checked
