"""Hostile HTTP peers against the one outbound stack.

A raw-socket peer sends replies no well-behaved server would: a garbage
status line, a body shorter than its Content-Length, a redirect to an
impossible port, JSON nested too deeply to decode. Through an enclaved
``Gateway`` a bad well-known reply is a ``fetch_failed`` denial and a bad
tools/call reply, or a transport URL that is not http(s), is a
``transport_error``, each with its one audit record; ``Gateway.invoke``
never raises. No request goes to a proxy named in the environment. A
property holds the seam contracts for generated replies: ``HttpFetcher``
returns ``(status, body)`` or raises ``FetchError``, and
``HttpTransport.request`` returns or raises ``TransportError``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsa import (
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    WELL_KNOWN_PATHS,
    AdmissionGate,
    AuditLog,
    DenyReason,
    DispatchStatus,
    FetchError,
    Flavor,
    Gateway,
    HttpFetcher,
    HttpTransport,
    RegistryEntry,
    ServerRegistry,
    ToolCall,
    TransportError,
)
from atsa.gateway import MAX_REPLY_BYTES
from conftest import FIXED_NOW, fetcher_for
from doubles import RawPeer

ROOT = Path(__file__).resolve().parent.parent
JSON_RPC_OK = b'{"jsonrpc": "2.0", "id": 1, "result": {}}'
GARBAGE = b"HELLO\r\n\r\n"
SHORT_BODY = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\nabc"
BAD_PORT_REDIRECT = b"HTTP/1.1 302 Found\r\nLocation: http://127.0.0.1:99999/x\r\nContent-Length: 0\r\n\r\n"
DEEP = b"[" * 200_000 + b"]" * 200_000
DEEP_BODY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(DEEP), DEEP)
# A valid JSON-RPC reply padded with whitespace to one byte over the cap.
OVERSIZED_BODY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (MAX_REPLY_BYTES + 1) + (
    b'{"jsonrpc": "2.0", "id": 1, "result": {}}'.ljust(MAX_REPLY_BYTES + 1)
)


@pytest.fixture(scope="module")
def peer():
    with RawPeer() as peer:
        yield peer


def _enclaved_gateway(peer, scheme, trust_root, fetcher, transport_url=None):
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gate = AdmissionGate(scheme, trust_root, fetcher, audit)
    registry = ServerRegistry()
    registry.register(
        RegistryEntry(
            endpoint=peer.url + "/mcp",
            bridge_id="bridge-1",
            required_clearance="restricted-plus",
            allowed_tools=frozenset({"list_labels"}),
            transport=HttpTransport(transport_url or peer.url + "/mcp"),
        )
    )
    return Gateway(registry, gate, audit, flavor=Flavor.enclaved), audit


@pytest.mark.parametrize("reply", [GARBAGE, SHORT_BODY], ids=["garbage", "short_body"])
def test_bad_well_known_reply_is_fetch_failed(peer, scheme, trust_root, reply):
    peer.reply = reply
    gateway, audit = _enclaved_gateway(peer, scheme, trust_root, HttpFetcher())
    result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
    assert (result.status, result.reason) == (DispatchStatus.denied, DenyReason.fetch_failed)
    assert [record.event for record in audit.records] == [EVENT_CONNECT_DENY]


@pytest.mark.parametrize(
    "reply",
    [GARBAGE, SHORT_BODY, BAD_PORT_REDIRECT, DEEP_BODY, OVERSIZED_BODY],
    ids=["garbage", "short_body", "bad_port_redirect", "deep_nesting", "oversized"],
)
def test_bad_tools_call_reply_is_transport_error(peer, scheme, trust_root, signed_doc, reply):
    peer.reply = reply
    fetcher = fetcher_for(signed_doc, origin=peer.url)
    gateway, audit = _enclaved_gateway(peer, scheme, trust_root, fetcher)
    result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
    assert result.status == DispatchStatus.transport_error
    assert [record.event for record in audit.records] == [EVENT_CONNECT_ALLOW]


@pytest.mark.parametrize("scheme_name", ["file", "ftp", "data"])
def test_non_http_transport_url_is_transport_error(peer, scheme, trust_root, signed_doc, tmp_path, scheme_name):
    reply = tmp_path / "reply.json"
    reply.write_bytes(JSON_RPC_OK)
    url = {
        "file": reply.as_uri(),
        "ftp": "ftp://127.0.0.1:1/mcp",
        "data": "data:application/json," + urllib.parse.quote(JSON_RPC_OK),
    }[scheme_name]
    gateway, audit = _enclaved_gateway(peer, scheme, trust_root, fetcher_for(signed_doc, origin=peer.url), url)
    result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
    assert result.status == DispatchStatus.transport_error
    assert "not an absolute http(s) URL" in result.detail
    assert [record.event for record in audit.records] == [EVENT_CONNECT_ALLOW]


# Run in a fresh interpreter: an HTTP library may read the proxy variables
# once, at import.
PROXIED_CALL = """
import json, sys
from atsa import HttpTransport, ToolCall, jsonrpc_tools_call
transport = HttpTransport(sys.argv[1], bearer_provider=lambda: "sesame")
print(json.dumps(jsonrpc_tools_call(transport, ToolCall("list_labels"))))
"""


def test_bearer_token_never_goes_to_an_environment_proxy():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(JSON_RPC_OK), JSON_RPC_OK)
    with RawPeer(reply) as origin, RawPeer() as proxy:
        env = {name: value for name, value in os.environ.items() if name.lower() != "no_proxy"}
        env.update(http_proxy=proxy.url, HTTP_PROXY=proxy.url)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", PROXIED_CALL, origin.url + "/mcp"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == {}
        [request] = origin.requests
        assert request.startswith(b"POST /mcp ") and b"\r\nAuthorization: Bearer sesame\r\n" in request
        assert proxy.requests == []


def test_http_fetcher_refuses_a_body_cut_short(peer):
    peer.reply = SHORT_BODY
    with pytest.raises(FetchError, match="97 bytes short"):
        HttpFetcher()(peer.url + WELL_KNOWN_PATHS[0])


def _framed(body: bytes, framing: str, short_by: int) -> tuple[list[bytes], bytes]:
    if framing == "length":
        return [b"Content-Length: %d" % len(body)], body
    if framing == "short":
        return [b"Content-Length: %d" % (len(body) + short_by)], body
    if framing == "absent":
        return [], body
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body) if body else b"0\r\n\r\n"
    if framing == "chunked_cut":
        chunked = chunked[: max(0, len(chunked) - short_by)]
    return [b"Transfer-Encoding: chunked"], chunked


@st.composite
def _replies(draw) -> bytes:
    """Raw replies with a ``{origin}`` placeholder for the peer's own origin."""
    status = draw(
        st.sampled_from(
            [
                b"HTTP/1.1 200 OK",
                b"HTTP/1.1 404 Not Found",
                b"HTTP/1.1 302 Found",
                b"HTTP/1.1 307 Temporary Redirect",
                b"HTTP/1.1 500 Internal Server Error",
                b"HTTP/1.1 100 Continue",
                b"HTTP/1.1 101 Switching Protocols",
                b"HTTP/1.1 199 Odd",
                b"HTTP/1.1 abc",
                b"HELLO",
                b"",
            ]
        )
    )
    location = draw(
        st.sampled_from(
            [None, b"{origin}/x", b"/relative", b"http://other.invalid/x", b"http://127.0.0.1:99999/x"]
        )
    )
    body = draw(
        st.sampled_from(
            [
                b'{"jsonrpc": "2.0", "id": 1, "result": {"ok": true}}',
                b"[" * 5000 + b"]" * 5000,
                b"\xff\xfe\x00not utf-8",
                b"",
            ]
        )
    )
    framing = draw(st.sampled_from(["length", "short", "absent", "chunked", "chunked_cut"]))
    headers, payload = _framed(body, framing, draw(st.integers(1, 64)))
    if location is not None:
        headers.append(b"Location: " + location)
    return b"\r\n".join([status, *headers, b"", payload])


@settings(max_examples=200, deadline=None)
@given(reply=_replies())
def test_seams_return_or_raise_their_own_error(peer, reply):
    peer.reply = reply.replace(b"{origin}", peer.url.encode("ascii"))
    try:
        status, body = HttpFetcher()(peer.url + WELL_KNOWN_PATHS[0])
    except FetchError:
        pass
    else:
        assert isinstance(status, int) and isinstance(body, bytes)
    transport = HttpTransport(peer.url + "/mcp", bearer_provider=lambda: "sesame")
    envelope = {"jsonrpc": "2.0", "id": transport.next_id(), "method": "tools/call", "params": {}}
    try:
        transport.request(envelope, {"Content-Type": "application/json"})
    except TransportError:
        pass
