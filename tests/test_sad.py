"""Document parsing, canonical encoding, and detached signatures."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsa import (
    AttestationDocument,
    DocumentError,
    UnsupportedVersionError,
    canonical_body,
    canonical_json_bytes,
    generate_keypair,
    keypair_from_seed,
    parse_document,
    serialize_document,
    sign_document,
    verify_signature,
)
from atsa.conformance import _flip_signature_byte
from conftest import examples
from reference_impl import (
    random_sad_wire_text,
    reference_canonical,
    reference_sad_body,
)

# frozen signing bytes for the baseline document with signer key id "S"
GOLDEN_BODY = (
    b'{"capabilities":["mcp-server"],"clearance":"restricted-plus",'
    b'"id":"mcp.example.gmail","netAllowedHosts":[],"publisher":"example-corp",'
    b'"signerKeyId":"S","v":1,"version":"2.3.1"}'
)


def test_golden_canonical_body(baseline_doc):
    doc = replace(baseline_doc, signer_key_id="S")
    assert canonical_body(doc) == GOLDEN_BODY
    wire = json.loads(serialize_document(doc))
    assert reference_sad_body(wire) == GOLDEN_BODY


def test_key_order_invariance():
    a = b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"public","capabilities":["mcp-server"]}'
    b = b'{"capabilities":["mcp-server"],"clearance":"public","version":"1","publisher":"p","id":"x","v":1}'
    assert canonical_body(parse_document(a)) == canonical_body(parse_document(b))


def test_signature_is_excluded_from_body(baseline_doc, signer):
    signed = sign_document(baseline_doc, signer)
    unsigned = replace(signed, signature=None)
    assert canonical_body(signed) == canonical_body(unsigned)


def test_absent_signer_key_id_encodes_as_null(baseline_doc):
    body = canonical_body(baseline_doc)
    assert b'"signerKeyId":null' in body


def test_null_signer_key_id_equals_absent():
    with_null = parse_document(
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"public",'
        b'"capabilities":[],"signerKeyId":null}'
    )
    without = parse_document(
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"public",'
        b'"capabilities":[]}'
    )
    assert with_null == without
    assert canonical_body(with_null) == canonical_body(without)


def test_absent_optional_fields_are_omitted():
    doc = AttestationDocument(
        id="x", publisher="p", version="1", clearance="public", capabilities=()
    )
    body = canonical_body(doc)
    assert b"netAllowedHosts" not in body
    assert b"verification" not in body
    assert b'"signerKeyId":null' in body


def test_array_members_sorted_bytewise():
    doc = AttestationDocument(
        id="x", publisher="p", version="1", clearance="public",
        capabilities=("b", "a", "B", "mcp-server"),
    )
    assert b'"capabilities":["B","a","b","mcp-server"]' in canonical_body(doc)


def test_unknown_fields_survive_round_trip():
    raw = (
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"public",'
        b'"capabilities":[],"x-vendor":"acme","nested":{"a":[1,2]}}'
    )
    doc = parse_document(raw)
    assert doc.extra == {"x-vendor": "acme", "nested": {"a": [1, 2]}}
    again = parse_document(serialize_document(doc).encode("utf-8"))
    assert again == doc


def test_unknown_fields_do_not_change_body():
    base = b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"public","capabilities":[]}'
    extra = b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"public","capabilities":[],"zz":"ignored"}'
    assert canonical_body(parse_document(base)) == canonical_body(parse_document(extra))


def test_canonical_json_escapes():
    value = {"s": 'a"b\\c\nd\x01e'}
    assert canonical_json_bytes(value) == reference_canonical(value)
    assert canonical_json_bytes(value) == b'{"s":"a\\"b\\\\c\\nd\\u0001e"}'


def test_canonical_json_rejects_unencodable():
    with pytest.raises(TypeError):
        canonical_json_bytes(1.5)
    with pytest.raises(TypeError):
        canonical_json_bytes({"k": object()})
    with pytest.raises(TypeError):
        canonical_json_bytes({1: "non-string key"})


@pytest.mark.parametrize(
    "raw",
    [
        b"not json",
        b"[]",
        b'"just a string"',
        b'{"v":1}',
        b'{"v":1,"id":"","publisher":"p","version":"1","clearance":"c","capabilities":[]}',
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c"}',
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c","capabilities":"mcp-server"}',
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c","capabilities":[1]}',
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c","capabilities":[],"netAllowedHosts":"a"}',
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c","capabilities":[],"signerKeyId":""}',
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c","capabilities":[],"signature":7}',
        b'{"v":1,"id":7,"publisher":"p","version":"1","clearance":"c","capabilities":[]}',
        b"\xff\xfe",
    ],
)
def test_parse_rejects_malformed(raw):
    with pytest.raises(DocumentError):
        parse_document(raw)


def test_parse_maps_deep_nesting_to_document_error():
    raw = (
        b'{"v":1,"id":"x","publisher":"p","version":"1","clearance":"c",'
        b'"capabilities":[],"x-deep":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    )
    with pytest.raises(DocumentError):
        parse_document(raw)


@pytest.mark.parametrize("v", [b"2", b"0", b"-1"])
def test_parse_rejects_wrong_version_value(v):
    raw = (
        b'{"v":' + v + b',"id":"x","publisher":"p","version":"1",'
        b'"clearance":"c","capabilities":[]}'
    )
    with pytest.raises(UnsupportedVersionError):
        parse_document(raw)


@pytest.mark.parametrize("v", [b'"1"', b"true", b"null", b"1.0"])
def test_parse_rejects_wrong_version_type(v):
    # wrong type is a malformed document, not a version negotiation signal
    raw = (
        b'{"v":' + v + b',"id":"x","publisher":"p","version":"1",'
        b'"clearance":"c","capabilities":[]}'
    )
    with pytest.raises(DocumentError):
        parse_document(raw)


def test_serialize_parse_round_trip(signed_doc):
    text = serialize_document(signed_doc)
    assert parse_document(text.encode("utf-8")) == signed_doc


def test_sign_then_verify(baseline_doc, signer):
    signed = sign_document(baseline_doc, signer)
    assert signed.signer_key_id == signer.key_id
    assert verify_signature(signed, signer.public_key)


def test_sign_overwrites_prior_signer(baseline_doc, signer):
    other = generate_keypair("other")
    first = sign_document(baseline_doc, other)
    second = sign_document(first, signer)
    assert second.signer_key_id == signer.key_id
    assert verify_signature(second, signer.public_key)
    assert not verify_signature(second, other.public_key)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: replace(d, signature=None),
        lambda d: replace(d, signature=""),
        lambda d: replace(d, signature="!!! not base64 !!!"),
        lambda d: replace(d, signature="c2hvcnQ="),
        lambda d: replace(d, clearance="sci"),
        lambda d: replace(d, version=d.version + " "),
        lambda d: replace(d, capabilities=()),
        lambda d: replace(d, net_allowed_hosts=("evil.example",)),
    ],
)
def test_verify_false_on_mutation_never_raises(signed_doc, signer, mutate):
    assert verify_signature(mutate(signed_doc), signer.public_key) is False


def test_a_changed_byte_or_key_never_verifies(signed_doc, signer):
    assert verify_signature(signed_doc, signer.public_key)
    assert verify_signature(replace(signed_doc, version="2.3.2"), signer.public_key) is False
    assert verify_signature(_flip_signature_byte(signed_doc), signer.public_key) is False
    assert verify_signature(_flip_signature_byte(signed_doc, 63), signer.public_key) is False
    flipped_key = bytes([signer.public_key[0] ^ 0x01]) + signer.public_key[1:]
    assert verify_signature(signed_doc, flipped_key) is False


def test_verify_false_with_wrong_key(signed_doc):
    stranger = generate_keypair("stranger")
    assert verify_signature(signed_doc, stranger.public_key) is False


def test_keypair_from_seed_is_deterministic():
    seed = bytes(range(32))
    a = keypair_from_seed("k", seed)
    b = keypair_from_seed("k", seed)
    assert a.public_key == b.public_key
    doc = AttestationDocument(
        id="x", publisher="p", version="1", clearance="public", capabilities=()
    )
    assert verify_signature(sign_document(doc, a), b.public_key)


def test_randomized_docs_match_reference_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        text = random_sad_wire_text(rng)
        doc = parse_document(text.encode("utf-8"))
        assert canonical_body(doc) == reference_sad_body(json.loads(text))


_text = st.text(min_size=1, max_size=16)
_items = st.lists(st.text(max_size=10), max_size=4).map(tuple)
_docs = st.builds(
    AttestationDocument,
    id=_text,
    publisher=_text,
    version=_text,
    clearance=_text,
    capabilities=_items,
    signer_key_id=st.none() | _text,
    net_allowed_hosts=st.none() | _items,
    verification=st.none() | _text,
)


@settings(max_examples=examples(150), deadline=None)
@given(doc=_docs)
def test_canonical_body_matches_oracle_property(doc):
    wire = json.loads(serialize_document(doc))
    assert canonical_body(doc) == reference_sad_body(wire)


@settings(max_examples=examples(150), deadline=None)
@given(doc=_docs)
def test_round_trip_preserves_document(doc):
    assert parse_document(serialize_document(doc).encode("utf-8")) == doc


@settings(max_examples=examples(60), deadline=None)
@given(doc=_docs, seed=st.binary(min_size=32, max_size=32))
def test_sign_verify_property(doc, seed):
    key = keypair_from_seed("prop-signer", seed)
    signed = sign_document(doc, key)
    assert verify_signature(signed, key.public_key)
    tampered = replace(signed, clearance=signed.clearance + "x")
    assert not verify_signature(tampered, key.public_key)


_strings = st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=8)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | _strings
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_strings, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=examples(300), deadline=None)
@given(value=_json_values)
def test_canonical_json_matches_oracle_property(value):
    assert canonical_json_bytes(value) == reference_canonical(value)


_unencodable = (
    st.floats()
    | st.builds(object)
    | st.dictionaries(st.integers() | st.booleans() | st.none(), _json_values, min_size=1)
)


def _bury(inner):
    before = st.lists(_scalars, max_size=3)
    after = st.lists(_json_values, max_size=2)
    in_list = st.tuples(before, inner, after).map(lambda t: [*t[0], t[1], *t[2]])
    in_dict = st.tuples(st.dictionaries(_strings, _scalars, max_size=3), _strings, inner).map(
        lambda t: {**t[0], t[1]: t[2]}
    )
    return in_list | in_dict


@settings(max_examples=examples(150), deadline=None)
@given(value=st.recursive(_unencodable, _bury, max_leaves=4))
def test_canonical_json_rejects_unencodable_property(value):
    with pytest.raises(TypeError):
        canonical_json_bytes(value)
