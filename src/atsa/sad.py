"""Server attestation documents: parsing, canonical serialization, Ed25519 signing.

A server attestation document (SAD) is a small JSON object through which a
publisher asserts an MCP server's identity and clearance level. Signatures
are computed over a canonical body so that byte-level formatting of the
document at rest never affects verification.

Canonical form rules:

* the body covers exactly the registered fields minus ``signature``;
* an absent ``signerKeyId`` is serialized as JSON ``null``, while absent
  ``verification`` / ``netAllowedHosts`` are omitted entirely;
* object keys and array members are sorted bytewise over their UTF-8
  serialization;
* no whitespace, minimal string escaping, integers in shortest decimal form;
* a lone surrogate (U+D800 to U+DFFF), which JSON text can carry but UTF-8
  cannot encode and I-JSON (RFC 7493, section 2.1) rules out, is written as
  its lowercase ``\\uXXXX`` escape. Arrays sort by these escaped bytes;
  object keys keep code-point order, so such a key sorts before U+E000.

The encoder is one walk that writes each value once, its text then encoded to
UTF-8 with surrogates escaped. It matches types exactly and rejects floats,
non-string keys, subclasses, non-``dict`` mappings and any other type. A string
is escaped by ``json.encoder.encode_basestring``; an object checks its keys,
then writes its members in insertion order and joins them with the keys in
code-point order, their UTF-8 byte order for Unicode scalar values; an array
or tuple writes each member, then sorts the members' texts by their escaped
UTF-8 bytes. Nesting is bounded by the interpreter's recursion limit.

Duplicate member names. An object that names a member twice, which I-JSON
(RFC 7493, section 2.3) forbids, keeps the last one, as ``json`` does. The
signature covers only the kept values, so an appended duplicate that changes
a signed value is denied, at the signature clause or an earlier one, and one
that repeats the value changes nothing.

Each call parses, canonicalizes or verifies afresh. The one thing kept is a
signing key's ``Ed25519PrivateKey``, in its ``KeyPair``'s private ``_signer``
slot, so that each signature does not derive the public key again.
``admission`` keeps the one memo: by the fetched bytes themselves, the parse
outcome and the signature result per public key.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring
from typing import Any, Mapping

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from ._json import read_json

__all__ = [
    "DOCUMENT_VERSION",
    "MCP_SERVER_CAPABILITY",
    "AttestationDocument",
    "DocumentError",
    "KeyPair",
    "UnsupportedVersionError",
    "canonical_body",
    "canonical_json_bytes",
    "generate_keypair",
    "keypair_from_seed",
    "parse_document",
    "serialize_document",
    "sign_document",
    "verify_signature",
]

DOCUMENT_VERSION = 1

# Capability string that marks a manifest as an MCP server assertion.
MCP_SERVER_CAPABILITY = "mcp-server"

# Wire field names in at-rest serialization order. The canonical body covers
# every registered field except "signature".
WIRE_FIELDS = (
    "v",
    "id",
    "publisher",
    "version",
    "clearance",
    "capabilities",
    "signerKeyId",
    "netAllowedHosts",
    "verification",
    "signature",
)


class DocumentError(ValueError):
    """A document failed structural validation."""


class UnsupportedVersionError(DocumentError):
    """A document declares a format version this verifier does not understand."""


@dataclass(frozen=True)
class AttestationDocument:
    """Parsed SAD. Unknown wire fields are retained in ``extra`` but are never
    part of the canonical body."""

    id: str
    publisher: str
    version: str
    clearance: str
    capabilities: tuple[str, ...]
    signer_key_id: str | None = None
    net_allowed_hosts: tuple[str, ...] | None = None
    verification: str | None = None
    signature: str | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "capabilities", tuple(self.capabilities))
        if self.net_allowed_hosts is not None:
            object.__setattr__(self, "net_allowed_hosts", tuple(self.net_allowed_hosts))


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair. ``private_key`` is the 32-byte seed; it is absent on
    verify-only keys.

    The private ``_signer`` slot holds the seed's ``Ed25519PrivateKey``:
    ``keypair_from_seed`` fills it, and ``sign_document`` fills it on first use
    for a pair built by hand, after checking that ``public_key`` is the seed's.
    A ``dataclasses.replace``d pair starts with it empty."""

    key_id: str
    public_key: bytes
    private_key: bytes | None = None
    _signer: Ed25519PrivateKey | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.key_id:
            raise ValueError("key_id must be non-empty")
        if len(self.public_key) != 32:
            raise ValueError("public key must be 32 bytes")
        if self.private_key is not None and len(self.private_key) != 32:
            raise ValueError("private key seed must be 32 bytes")


def generate_keypair(key_id: str) -> KeyPair:
    return keypair_from_seed(key_id, os.urandom(32))


def keypair_from_seed(key_id: str, seed: bytes) -> KeyPair:
    """Deterministic keypair from a 32-byte seed. Used by seeded corpora."""
    signer = Ed25519PrivateKey.from_private_bytes(seed)
    pair = KeyPair(key_id, _public_bytes(signer), seed)
    object.__setattr__(pair, "_signer", signer)
    return pair


def _public_bytes(signer: Ed25519PrivateKey) -> bytes:
    return signer.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def canonical_json_bytes(value: Any) -> bytes:
    """Deterministic JSON encoding of ``value`` as UTF-8 bytes.

    Object keys and array members are ordered bytewise over their UTF-8
    serialization, output carries no whitespace, and strings use only the
    escapes JSON mandates. Only these exact types are encodable: ``None``,
    ``bool``, ``int``, ``str``, ``list``, ``tuple`` and ``dict`` with ``str``
    keys; anything else, a subclass or another mapping too, raises TypeError.
    Lone surrogates are written as ``\\uXXXX`` escapes (see the module docstring).
    """
    # backslashreplace writes exactly \udxxx for a surrogate, and only for one.
    return _text(value).encode("utf-8", "backslashreplace")


def _text(value: Any) -> str:
    """The canonical JSON text of ``value``, its types matched exactly."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is dict:
        for key in value:
            if type(key) is not str:
                raise TypeError(f"object keys must be strings, got {type(key).__name__}")
        members = {key: _text(member) for key, member in value.items()}
        return "{" + ",".join(f"{encode_basestring(key)}:{members[key]}" for key in sorted(members)) + "}"
    if kind is list or kind is tuple:
        texts = [_text(member) for member in value]
        texts.sort(key=lambda text: text.encode("utf-8", "backslashreplace"))
        return "[" + ",".join(texts) + "]"
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"not canonicalizable: {kind.__name__}")


def _registered_fields(doc: AttestationDocument) -> dict[str, Any]:
    """The registered wire fields of ``doc`` in ``WIRE_FIELDS`` order, absent
    optionals omitted."""
    fields: dict[str, Any] = {
        "v": DOCUMENT_VERSION,
        "id": doc.id,
        "publisher": doc.publisher,
        "version": doc.version,
        "clearance": doc.clearance,
        "capabilities": list(doc.capabilities),
    }
    if doc.signer_key_id is not None:
        fields["signerKeyId"] = doc.signer_key_id
    if doc.net_allowed_hosts is not None:
        fields["netAllowedHosts"] = list(doc.net_allowed_hosts)
    if doc.verification is not None:
        fields["verification"] = doc.verification
    if doc.signature is not None:
        fields["signature"] = doc.signature
    return fields


def canonical_body(doc: AttestationDocument) -> bytes:
    """Signing-input bytes for ``doc``. Identical for a document with and
    without its signature attached."""
    return _signing_input(doc, doc.signer_key_id)


def _signing_input(doc: AttestationDocument, signer_key_id: str | None) -> bytes:
    """The canonical body of ``doc`` with ``signer_key_id`` as its signer."""
    body = _registered_fields(doc)
    body.pop("signature", None)
    body["signerKeyId"] = signer_key_id
    return canonical_json_bytes(body)


def sign_document(doc: AttestationDocument, key: KeyPair) -> AttestationDocument:
    """Return ``doc`` with ``signer_key_id`` set to the key's id and a fresh
    detached Ed25519 signature over the canonical body. Raises ValueError for
    a key with no private part, or one whose public key is not its seed's."""
    signer = key._signer
    if signer is None:
        if key.private_key is None:
            raise ValueError(f"key {key.key_id!r} has no private part")
        signer = Ed25519PrivateKey.from_private_bytes(key.private_key)
        if _public_bytes(signer) != key.public_key:
            raise ValueError(f"key {key.key_id!r}: public key is not the private key's")
        object.__setattr__(key, "_signer", signer)
    signature = base64.b64encode(signer.sign(_signing_input(doc, key.key_id))).decode("ascii")
    return replace(doc, signer_key_id=key.key_id, signature=signature)


def verify_signature(doc: AttestationDocument, public_key: bytes) -> bool:
    """True iff ``doc.signature`` is a valid Ed25519 signature by
    ``public_key`` over the canonical body. Malformed input returns False,
    never raises."""
    if doc.signature is None:
        return False
    try:
        raw = base64.b64decode(doc.signature, validate=True)
    except (binascii.Error, ValueError):
        return False
    if len(raw) != 64:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(raw, canonical_body(doc))
    except (InvalidSignature, ValueError):
        return False
    return True


def _require_string(data: Mapping[str, Any], name: str) -> str:
    value = data.get(name)
    if not isinstance(value, str) or not value:
        raise DocumentError(f"field {name!r} must be a non-empty string")
    return value


def _optional_string(data: Mapping[str, Any], name: str, *, allow_empty: bool = False) -> str | None:
    if name not in data or data[name] is None:
        return None
    value = data[name]
    if not isinstance(value, str) or (not value and not allow_empty):
        raise DocumentError(f"field {name!r} must be a non-empty string when present")
    return value


def _string_array(data: Mapping[str, Any], name: str) -> tuple[str, ...]:
    value = data.get(name)
    if not isinstance(value, list) or any(not isinstance(m, str) for m in value):
        raise DocumentError(f"field {name!r} must be an array of strings")
    return tuple(value)


def parse_document(raw: bytes | str) -> AttestationDocument:
    """Parse and structurally validate a SAD.

    Unknown fields are ignored for validation and retained on the result.
    A ``null`` signerKeyId or signature counts as absent. Raises
    DocumentError on malformed input and UnsupportedVersionError when
    ``v`` is an integer other than 1.
    """
    data = read_json(raw, DocumentError, "document is not valid JSON")
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")

    version = data.get("v")
    if isinstance(version, bool) or not isinstance(version, int):
        raise DocumentError("field 'v' must be an integer")
    if version != DOCUMENT_VERSION:
        raise UnsupportedVersionError(f"unsupported document version {version}")

    capabilities = _string_array(data, "capabilities")
    net_allowed_hosts: tuple[str, ...] | None = None
    if "netAllowedHosts" in data:
        net_allowed_hosts = _string_array(data, "netAllowedHosts")

    return AttestationDocument(
        id=_require_string(data, "id"),
        publisher=_require_string(data, "publisher"),
        version=_require_string(data, "version"),
        clearance=_require_string(data, "clearance"),
        capabilities=capabilities,
        signer_key_id=_optional_string(data, "signerKeyId"),
        net_allowed_hosts=net_allowed_hosts,
        verification=_optional_string(data, "verification"),
        signature=_optional_string(data, "signature", allow_empty=True),
        extra={k: v for k, v in data.items() if k not in WIRE_FIELDS},
    )


def serialize_document(doc: AttestationDocument, *, indent: int | None = 2) -> str:
    """At-rest JSON for ``doc``: registered fields in a fixed order, absent
    optionals omitted, retained unknown fields appended."""
    data = _registered_fields(doc)
    for key, value in doc.extra.items():
        data.setdefault(key, value)
    return json.dumps(data, indent=indent, ensure_ascii=False)
