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

Connection reuse is pinned too: one connection per origin per thread, an
IPv6 literal origin included, a fresh one after the peer hangs up, never a
resent POST, and no pooled socket left open once its thread ends. The tests
count connections at ``admission._connect``, which opens every one; a URL
whose host holds a space never reaches it, so no name is looked up.

``exchange`` opens its socket and reads replies itself. A differential
property holds it to ``http.client``, kept here as the reference parser, on
generated replies over plain TCP and over TLS: both give the same
``(status, body)`` or both fail, save where ``exchange`` refuses what
``http.client`` reads. The https path runs on loopback too, against a CA made
here: fresh connections share one TLS context, and a leaf for another host or
an expired one is refused before any POST. Pooling holds over TLS as over
plain http: a connection the peer closed while idle is replaced, a bearer
token goes only to its own origin, and a reply over the cap closes its
connection. A body read to the peer's close is refused past the cap, and a
TCP connect that spends the budget ends the exchange before a TLS handshake.
"""

from __future__ import annotations

import contextlib
import datetime
import http.client
import io
import ipaddress
import json
import os
import resource
import socket
import ssl
import subprocess
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID
from hypothesis import given, settings
from hypothesis import strategies as st

from atsa import (
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    MAX_DOCUMENT_BYTES,
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
    StubServer,
    StubServerConfig,
    ToolCall,
    TransportError,
    jsonrpc_tools_call,
    serialize_document,
)
from atsa import admission
from atsa.admission import exchange
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
UTF16 = JSON_RPC_OK.decode().encode("utf-16")  # JSON text is UTF-8 (RFC 8259, section 8.1)
UTF16_BODY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(UTF16), UTF16)
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
    [GARBAGE, SHORT_BODY, BAD_PORT_REDIRECT, DEEP_BODY, OVERSIZED_BODY, UTF16_BODY],
    ids=["garbage", "short_body", "bad_port_redirect", "deep_nesting", "oversized", "utf16"],
)
def test_bad_tools_call_reply_is_transport_error(peer, scheme, trust_root, signed_doc, reply):
    peer.reply = reply
    fetcher = fetcher_for(signed_doc, origin=peer.url)
    gateway, audit = _enclaved_gateway(peer, scheme, trust_root, fetcher)
    result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
    assert result.status == DispatchStatus.transport_error
    assert [record.event for record in audit.records] == [EVENT_CONNECT_ALLOW]


# A peer that sends a whole, valid reply, but one byte every 0.2 s: each read
# alone is answered well within PEER_TIMEOUT_S, so only a deadline on the
# whole exchange ends it.
TRICKLED = b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n" + b"x" * 20


def test_a_trickled_well_known_reply_is_fetch_failed_within_the_deadline(monkeypatch, scheme, trust_root):
    monkeypatch.setattr(admission, "PEER_TIMEOUT_S", 0.5)
    with RawPeer(TRICKLED, trickle=0.2) as peer:
        gateway, audit = _enclaved_gateway(peer, scheme, trust_root, HttpFetcher())
        started = time.monotonic()
        result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
        elapsed = time.monotonic() - started
    assert (result.status, result.reason) == (DispatchStatus.denied, DenyReason.fetch_failed)
    assert [record.event for record in audit.records] == [EVENT_CONNECT_DENY]
    assert elapsed < 1.5


def test_a_trickled_tools_call_reply_is_one_post_and_a_transport_error(monkeypatch, scheme, trust_root, signed_doc):
    monkeypatch.setattr(admission, "PEER_TIMEOUT_S", 0.5)
    with RawPeer(TRICKLED, trickle=0.2) as peer:
        gateway, audit = _enclaved_gateway(peer, scheme, trust_root, fetcher_for(signed_doc, origin=peer.url))
        started = time.monotonic()
        result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
        elapsed = time.monotonic() - started
        assert len(_posts(peer)) == 1
    assert result.status == DispatchStatus.transport_error
    assert [record.event for record in audit.records] == [EVENT_CONNECT_ALLOW]
    assert elapsed < 1.5


def test_a_tcp_connect_that_spends_the_deadline_ends_the_exchange_before_its_tls_handshake(monkeypatch):
    monkeypatch.setattr(admission, "PEER_TIMEOUT_S", 0.05)
    opened = []
    create_connection = socket.create_connection

    def slow_connect(address, timeout):
        opened.append(create_connection(address, timeout))
        time.sleep(0.1)  # the connect took the whole budget
        return opened[-1]

    class NoHandshake:
        def wrap_socket(self, sock, server_hostname):
            raise AssertionError("a TLS handshake began with the deadline spent")

    monkeypatch.setattr(admission.socket, "create_connection", slow_connect)
    monkeypatch.setattr(admission, "_tls_context", lambda cert_file, cert_dir: NoHandshake())
    with RawPeer() as peer:
        url = peer.url.replace("http://", "https://", 1) + WELL_KNOWN_PATHS[0]
        with pytest.raises(FetchError, match=r"failed: timed out$"):
            exchange(url, {}, limit=MAX_DOCUMENT_BYTES)
    (sock,) = opened
    assert sock.fileno() == -1  # closed at once, not left to the collector


def test_a_body_read_to_close_is_refused_past_the_limit():
    # Neither Content-Length nor chunked: the body runs until the peer closes,
    # over several reads.
    head, limit = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n", 100_000
    with RawPeer(head + b"x" * limit) as peer:
        assert exchange(peer.url + "/mcp", {}, limit=limit) == (200, b"x" * limit)
        peer.reply = head + b"x" * (limit + 1)
        with pytest.raises(FetchError, match=f"failed: the body is over {limit} bytes$"):
            exchange(peer.url + "/mcp", {}, limit=limit)


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


# Connection reuse. Each thread keeps one connection per origin; these tests
# count TCP connects by wrapping ``admission._connect``.
def _ok(body: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


class _Opened:
    """A socket ``_connect`` returned, seen as ``sock``: None once it is closed."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    @property
    def sock(self) -> socket.socket | None:
        return None if self._sock.fileno() == -1 else self._sock


@pytest.fixture
def connections(monkeypatch):
    """Every connection ``exchange`` opens, in order."""
    opened = []
    connect = admission._connect

    def counting(*origin):
        sock = connect(*origin)
        opened.append(_Opened(sock))
        return sock

    monkeypatch.setattr(admission, "_connect", counting)
    return opened


def _posts(peer) -> list[bytes]:
    return [request for request in peer.requests if request.startswith(b"POST ")]


def test_exchanges_with_one_origin_share_one_connection(connections, scheme, trust_root, signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc, {"list_labels": lambda arguments: arguments})).start()
    try:
        gateway, _ = _enclaved_gateway(stub, scheme, trust_root, HttpFetcher())
        for n in range(5):
            result = gateway.invoke(stub.url + "/mcp", ToolCall("list_labels", {"n": n}))
            assert (result.status, result.payload) == (DispatchStatus.ok, {"n": n})
        assert HttpFetcher()(stub.url + WELL_KNOWN_PATHS[0])[0] == 200
    finally:
        stub.shutdown()
    assert len(connections) == 1
    assert stub.counters == {f"GET {WELL_KNOWN_PATHS[0]}": 6, "POST /mcp": 5}


def test_a_peer_that_closes_after_each_reply_gets_a_fresh_connection(connections):
    with RawPeer(_ok(JSON_RPC_OK)) as peer:
        fetch, transport = HttpFetcher(), HttpTransport(peer.url + "/mcp")
        assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (200, JSON_RPC_OK)
        assert peer.hung_up.acquire(timeout=5)
        assert jsonrpc_tools_call(transport, ToolCall("list_labels")) == {}
        assert peer.hung_up.acquire(timeout=5)
        assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (200, JSON_RPC_OK)
        assert len(connections) == 3
        assert len(_posts(peer)) == 1


def test_a_post_the_peer_hangs_up_on_is_never_resent(connections, scheme, trust_root, signed_doc):
    document = serialize_document(signed_doc).encode("utf-8")

    def hang_up_on_post(request: bytes) -> bytes:
        return b"" if request.startswith(b"POST ") else _ok(document)

    with RawPeer(hang_up_on_post, keep_alive=True) as peer:
        gateway, audit = _enclaved_gateway(peer, scheme, trust_root, HttpFetcher())
        result = gateway.invoke(peer.url + "/mcp", ToolCall("list_labels"))
        assert result.status == DispatchStatus.transport_error
        assert [record.event for record in audit.records] == [EVENT_CONNECT_ALLOW]
        assert peer.hung_up.acquire(timeout=5)
        assert len(connections) == 1 and len(_posts(peer)) == 1


def test_a_url_with_userinfo_is_refused_before_a_byte_is_sent(connections):
    # The pool is keyed by origin, so a URL with userinfo would go out on this
    # connection with the userinfo in its Host field (RFC 9110 section 4.2.4).
    with RawPeer(_ok(JSON_RPC_OK), keep_alive=True) as peer:
        assert HttpFetcher()(peer.url + WELL_KNOWN_PATHS[0])[0] == 200
        url = peer.url.replace("http://", "http://u:secret@") + "/mcp"
        with pytest.raises(FetchError, match="not an absolute http"):
            exchange(url, {}, limit=MAX_REPLY_BYTES, data=JSON_RPC_OK)
    assert len(peer.requests) == len(connections) == 1


def test_a_get_on_a_stale_connection_is_resent_once(connections):
    # The peer answers the first GET, then hangs up on the next request it
    # reads; the readiness check cannot see that coming, so the GET is resent.
    replies = iter([_ok(b"{}"), b"", _ok(b"[]")])
    with RawPeer(lambda request: next(replies), keep_alive=True) as peer:
        fetch = HttpFetcher()
        assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (200, b"{}")
        assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (200, b"[]")
    assert len(connections) == 2 and len(peer.requests) == 3


OVER_DOCUMENT_CAP = _ok(b" " * (MAX_DOCUMENT_BYTES + 1))
NOT_FOUND = b"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot found"


@pytest.mark.parametrize(
    "reply, keep_alive",
    [(NOT_FOUND, True), (OVER_DOCUMENT_CAP, True), (SHORT_BODY, False)],
    ids=["non_2xx", "over_cap", "short_body"],
)
def test_a_reply_not_read_whole_closes_its_connection(connections, reply, keep_alive):
    replies = iter([reply, _ok(b"{}")])
    with RawPeer(lambda request: next(replies), keep_alive=keep_alive) as peer:
        fetch = HttpFetcher()
        try:
            assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (404, b"")
        except FetchError:
            pass
        [first] = connections
        assert first.sock is None
        assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (200, b"{}")
    assert len(connections) == 2


def test_an_ipv6_literal_origin_is_one_pooled_connection(connections):
    try:
        peer = RawPeer(_ok(b"{}"), keep_alive=True, host="::1")
    except OSError:
        pytest.skip("::1 cannot be bound here")
    with peer:
        fetch = HttpFetcher()
        for _ in range(2):
            assert fetch(peer.url + WELL_KNOWN_PATHS[0]) == (200, b"{}")
        [connection] = connections
        assert connection.sock.family == socket.AF_INET6
    authority = peer.url.removeprefix("http://")
    assert authority.startswith("[::1]:") and len(peer.requests) == 2
    assert all(b"\r\nHost: %s\r\n" % authority.encode() in request for request in peer.requests)


def test_a_space_in_the_host_is_refused_before_any_lookup(monkeypatch):
    lookups, connects = [], []
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kwargs: lookups.append(args) or [])
    monkeypatch.setattr(admission, "_connect", lambda *origin: connects.append(origin))
    with pytest.raises(FetchError, match="GET http://exa mple.com/ failed"):
        exchange("http://exa mple.com/", {}, limit=MAX_DOCUMENT_BYTES)
    assert lookups == connects == []


def test_origins_that_differ_only_by_port_never_share_a_connection(connections):
    with RawPeer(_ok(JSON_RPC_OK), keep_alive=True) as first, RawPeer(first.reply, keep_alive=True) as second:
        secret = HttpTransport(first.url + "/mcp", bearer_provider=lambda: "sesame")
        plain = HttpTransport(second.url + "/mcp")
        for _ in range(3):
            for transport in (secret, plain):
                transport.request({"jsonrpc": "2.0", "id": 1}, {"Content-Type": "application/json"})
    assert len(connections) == 2
    assert len(first.requests) == len(second.requests) == 3
    assert all(b"\r\nAuthorization: Bearer sesame\r\n" in request for request in first.requests)
    assert not any(b"sesame" in request for request in second.requests)


def test_eight_threads_through_one_gateway_get_their_own_results(connections, scheme, trust_root, signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc, {"list_labels": lambda arguments: arguments})).start()
    try:
        gateway, _ = _enclaved_gateway(stub, scheme, trust_root, HttpFetcher())

        def invoke(thread: int) -> list:
            calls = [ToolCall("list_labels", {"t": thread, "n": n}) for n in range(20)]
            return [gateway.invoke(stub.url + "/mcp", call) for call in calls]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(invoke, range(8)))
    finally:
        stub.shutdown()
    for thread, calls in enumerate(results):
        assert [(call.status, call.payload) for call in calls] == [
            (DispatchStatus.ok, {"t": thread, "n": n}) for n in range(20)
        ]
    assert len(connections) <= 8
    assert all(connection.sock is None for connection in connections)


def test_a_thread_that_ends_closes_its_pooled_connections(connections, signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc)).start()
    try:
        worker = threading.Thread(target=HttpFetcher(), args=(stub.url + WELL_KNOWN_PATHS[0],))
        worker.start()
        worker.join()
    finally:
        stub.shutdown()
    [connection] = connections
    assert connection.sock is None


def test_a_pooled_connection_above_descriptor_1023_is_reused(connections, signed_doc):
    # ``select.select`` refuses a descriptor at or above FD_SETSIZE (1024).
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
        pytest.skip("the descriptor limit is below 1100")
    stub = StubServer(StubServerConfig.for_document(signed_doc)).start()
    filler = []
    try:
        while not filler or filler[-1] < 1024:
            filler.append(os.open(os.devnull, os.O_RDONLY))
        for _ in range(2):
            assert HttpFetcher()(stub.url + WELL_KNOWN_PATHS[0])[0] == 200
        [connection] = connections
        assert connection.sock.fileno() > 1024
    finally:
        for descriptor in filler:
            os.close(descriptor)
        stub.shutdown()


# The reader against ``http.client``, the reference parser.
class _Replayed:
    """Socket stand-in from which ``http.client.HTTPResponse`` reads one raw reply."""

    def __init__(self, reply: bytes) -> None:
        self.reply = reply

    def makefile(self, mode: str) -> io.BytesIO:
        return io.BytesIO(self.reply)


def _http_client_reads(reply: bytes, limit: int) -> tuple[int, bytes] | None:
    """``(status, body)`` as ``exchange`` took it from ``http.client``, or None where that failed."""
    response = http.client.HTTPResponse(_Replayed(reply), method="GET")
    try:
        response.begin()
        if not 200 <= response.status < 300:
            return response.status, b""
        body = response.read(limit + 1)
    except (http.client.HTTPException, OSError, ValueError):
        return None
    finally:
        response.close()
    return None if len(body) > limit or response.length else (response.status, body)


def _refused_only_by_exchange(reply: bytes) -> bool:
    """The generated replies that ``exchange`` refuses and ``http.client`` reads:
    a 1xx status, which ``http.client`` skips, and a chunked body cut short inside
    its last lines, where ``http.client`` takes EOF as the end."""
    chunked = b"Transfer-Encoding: chunked" in reply
    return reply.startswith(b"HTTP/1.1 1") or (chunked and not reply.endswith(b"\r\n\r\n"))


def _agrees_with_http_client(peer, url: str, reply: bytes) -> None:
    """``peer`` serves ``reply``, its ``{origin}`` made ``url``; a GET on ``url`` reads it as ``http.client`` does."""
    peer.reply = reply = reply.replace(b"{origin}", url.encode("ascii"))
    expected = _http_client_reads(reply, MAX_DOCUMENT_BYTES)
    try:
        got = HttpFetcher()(url + WELL_KNOWN_PATHS[0])
    except FetchError:
        got = None
    assert got == expected or (got is None and _refused_only_by_exchange(reply))


@settings(max_examples=200, deadline=None)
@given(reply=_replies())
def test_the_reader_agrees_with_http_client(peer, reply):
    _agrees_with_http_client(peer, peer.url, reply)


@pytest.fixture(scope="module")
def tls_peer(pki):
    """A TLS ``RawPeer`` for the whole module, and its https URL."""
    with _tls_peer(pki, b"", keep_alive=False) as served:
        yield served


@settings(max_examples=200, deadline=None)
@given(reply=_replies())
def test_the_reader_agrees_with_http_client_over_tls(tls_peer, pki, reply):
    peer, url = tls_peer
    with pytest.MonkeyPatch.context() as env:
        env.setenv("SSL_CERT_FILE", pki.ca)
        _agrees_with_http_client(peer, url, reply)


def _reply(*fields: bytes, body: bytes = b"{}") -> bytes:
    return b"\r\n".join([b"HTTP/1.1 200 OK", *fields, b"", body])


@pytest.mark.parametrize(
    "reply, refusal, http_client_reads",
    [
        (_reply(b"Content-Length: 2", b"Content-Length: 3"), "not one length", (200, b"{}")),
        (_reply(b"X-Note: one", b"  two: three", b"Content-Length: 2"), "obs-fold", (200, b"{}")),
        (b"HTTP/1.1 100 Continue\r\n\r\n" + _ok(b"{}"), "interim", (200, b"{}")),
        (_reply(b"X-Long: " + b"a" * 70_000, b"Content-Length: 2"), "over 65536 bytes", None),
        (_reply(*(b"X-%d: y" % n for n in range(100)), b"Content-Length: 2"), "more than 100", None),
        (_reply(b"Transfer-Encoding: gzip, chunked", body=b"2\r\n{}\r\n0\r\n\r\n"), "transfer coding", (200, b"2\r\n{}\r\n0\r\n\r\n")),
        (_reply(b"Transfer-Encoding: chunked", body=b"0x2\r\n{}\r\n0\r\n\r\n"), "not hex", (200, b"{}")),
        (_reply(b"Transfer-Encoding: chunked", body=b"2\r\n{}..0\r\n\r\n"), "not followed by CRLF", (200, b"{}")),
    ],
    ids=[
        "differing_lengths", "obs_fold", "interim_1xx", "long_line", "too_many_fields", "other_coding",
        "chunk_size_not_hex", "chunk_not_ended_by_crlf",
    ],
)
def test_the_reader_refuses_a_reply_that_breaks_a_framing_rule(peer, reply, refusal, http_client_reads):
    peer.reply = reply
    with pytest.raises(FetchError, match=refusal):
        HttpFetcher()(peer.url + WELL_KNOWN_PATHS[0])
    assert _http_client_reads(reply, MAX_DOCUMENT_BYTES) == http_client_reads


@pytest.mark.parametrize(
    "reply, pooled",
    [
        (_reply(b"Transfer-Encoding: chunked", body=b"2\r\n{}\r\n0\r\n\r\n"), True),
        (_reply(b"Transfer-Encoding: chunked", b"Content-Length: 99", body=b"2\r\n{}\r\n0\r\n\r\n"), False),
        (_ok(b"{}") + _ok(b"[]"), False),
    ],
    ids=["chunked", "chunked_and_length", "bytes_after_the_reply"],
)
def test_a_reply_is_read_and_pooled_only_when_framed_alone(connections, reply, pooled):
    with RawPeer(reply, keep_alive=True) as peer:
        assert HttpFetcher()(peer.url + WELL_KNOWN_PATHS[0]) == (200, b"{}")
        [connection] = connections
        assert (connection.sock is not None) == pooled


@pytest.mark.parametrize(
    "path, token",
    [("/mcp", "sesame\r\nX-Injected: yes"), ("/a b", "sesame"), ("/mcp", "s\u00e9same")],
    ids=["crlf_in_a_header", "space_in_the_target", "non_ascii_header"],
)
def test_a_request_that_cannot_be_sent_verbatim_is_refused_unsent(path, token):
    with RawPeer(_ok(JSON_RPC_OK)) as peer:
        transport = HttpTransport(peer.url + path, bearer_provider=lambda: token)
        with pytest.raises(TransportError, match="control or non-ASCII"):
            transport.request({"jsonrpc": "2.0", "id": 1}, {"Content-Type": "application/json"})
        assert peer.requests == []


# The https path on loopback: a CA and leaves it signed, the stub's listening
# socket wrapped with ``ssl``, and ``SSL_CERT_FILE`` naming the CA.
def _certificate(
    subject: str, key, ca: x509.Certificate | None, ca_key, *, leaf: bool, age=datetime.timedelta(0)
) -> x509.Certificate:
    """A certificate for ``subject``, signed by ``ca`` or, with no ``ca``, by its own key,
    valid for a day from five minutes before ``age`` ago."""
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, subject)])
    signing_key = ca_key or key
    now = datetime.datetime.now(datetime.timezone.utc) - age
    draft = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(ca.subject if ca else name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.BasicConstraints(ca=not leaf, path_length=None), critical=True)
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), critical=False)
        .add_extension(
            x509.AuthorityKeyIdentifier.from_issuer_public_key(signing_key.public_key()), critical=False
        )
    )
    if leaf:
        draft = draft.add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address(subject))]), critical=False
        ).add_extension(x509.ExtendedKeyUsage([ExtendedKeyUsageOID.SERVER_AUTH]), critical=False)
    usage = x509.KeyUsage(
        digital_signature=leaf, content_commitment=False, key_encipherment=False, data_encipherment=False,
        key_agreement=False, key_cert_sign=not leaf, crl_sign=not leaf, encipher_only=False, decipher_only=False,
    )
    return draft.add_extension(usage, critical=True).sign(signing_key, hashes.SHA256())


def _pem(certificate: x509.Certificate) -> bytes:
    return certificate.public_bytes(serialization.Encoding.PEM)


@pytest.fixture(scope="module")
def pki(tmp_path_factory):
    """PEM files: the CA that signed the stub's leaves, an unrelated CA, and three leaves
    with their key: for ``127.0.0.1``, for another address, and for ``127.0.0.1`` but expired."""
    directory = tmp_path_factory.mktemp("pki")
    ca_key, other_key, leaf_key = (ec.generate_private_key(ec.SECP256R1()) for _ in range(3))
    ca = _certificate("atsa test CA", ca_key, None, None, leaf=False)
    key = leaf_key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8, serialization.NoEncryption()
    )
    files = {
        "ca": _pem(ca),
        "other_ca": _pem(_certificate("another CA", other_key, None, None, leaf=False)),
        "leaf": _pem(_certificate("127.0.0.1", leaf_key, ca, ca_key, leaf=True)) + key,
        "other_host_leaf": _pem(_certificate("127.0.0.2", leaf_key, ca, ca_key, leaf=True)) + key,
        "expired_leaf": _pem(
            _certificate("127.0.0.1", leaf_key, ca, ca_key, leaf=True, age=datetime.timedelta(days=2))
        ) + key,
    }
    for name, contents in files.items():
        (directory / f"{name}.pem").write_bytes(contents)
    return SimpleNamespace(**{name: str(directory / f"{name}.pem") for name in files})


@contextlib.contextmanager
def _https_stub(leaf: str, signed_doc):
    """The stub, serving TLS with the certificate chain and key in the file ``leaf``."""
    stub = StubServer(StubServerConfig.for_document(signed_doc, {"list_labels": lambda arguments: arguments}))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(leaf)
    stub.socket = context.wrap_socket(stub.socket, server_side=True)
    stub.start()
    try:
        yield stub, SimpleNamespace(url="https://" + stub.url.removeprefix("http://"))
    finally:
        stub.shutdown()


@pytest.fixture
def https_stub(pki, signed_doc):
    with _https_stub(pki.leaf, signed_doc) as served:
        yield served


def test_an_allowed_invoke_over_https_shares_one_handshake(
    connections, monkeypatch, pki, https_stub, scheme, trust_root
):
    monkeypatch.setenv("SSL_CERT_FILE", pki.ca)
    stub, origin = https_stub
    gateway, audit = _enclaved_gateway(origin, scheme, trust_root, HttpFetcher())
    for n in range(5):
        result = gateway.invoke(origin.url + "/mcp", ToolCall("list_labels", {"n": n}))
        assert (result.status, result.payload) == (DispatchStatus.ok, {"n": n})
    assert len(connections) == 1 and isinstance(connections[0].sock, ssl.SSLSocket)
    assert stub.tools_call_count() == 5
    assert [record.event for record in audit.records] == [EVENT_CONNECT_ALLOW] * 5


def test_a_peer_certified_by_an_unknown_ca_is_fetch_failed_with_no_post(
    monkeypatch, pki, https_stub, scheme, trust_root
):
    monkeypatch.setenv("SSL_CERT_FILE", pki.other_ca)
    stub, origin = https_stub
    gateway, audit = _enclaved_gateway(origin, scheme, trust_root, HttpFetcher())
    result = gateway.invoke(origin.url + "/mcp", ToolCall("list_labels"))
    assert (result.status, result.reason) == (DispatchStatus.denied, DenyReason.fetch_failed)
    assert "CERTIFICATE_VERIFY_FAILED" in result.detail
    assert [record.event for record in audit.records] == [EVENT_CONNECT_DENY]
    assert stub.tools_call_count() == 0


def test_fresh_https_connections_share_one_tls_context(connections, monkeypatch, pki, https_stub, tmp_path):
    # A bundle path no other test names, so the one context for it is built here.
    bundle = tmp_path / "ca.pem"
    bundle.write_bytes(Path(pki.ca).read_bytes())
    monkeypatch.setenv("SSL_CERT_FILE", str(bundle))
    loads = []
    load_default_certs = ssl.SSLContext.load_default_certs

    def counting(self, *args):
        loads.append(self)
        return load_default_certs(self, *args)

    monkeypatch.setattr(ssl.SSLContext, "load_default_certs", counting)
    _, origin = https_stub
    for _ in range(3):
        assert HttpFetcher()(origin.url + "/absent")[0] == 404  # a 404 is never pooled
    assert len(connections) == 3 and len(loads) == 1


@pytest.mark.parametrize(
    "leaf, refusal",
    [("other_host_leaf", "IP address mismatch"), ("expired_leaf", "certificate has expired")],
    ids=["another_host", "expired"],
)
def test_a_peer_whose_leaf_does_not_verify_is_fetch_failed_with_no_post(
    monkeypatch, pki, signed_doc, scheme, trust_root, leaf, refusal
):
    monkeypatch.setenv("SSL_CERT_FILE", pki.ca)
    with _https_stub(getattr(pki, leaf), signed_doc) as (stub, origin):
        gateway, audit = _enclaved_gateway(origin, scheme, trust_root, HttpFetcher())
        result = gateway.invoke(origin.url + "/mcp", ToolCall("list_labels"))
    assert (result.status, result.reason) == (DispatchStatus.denied, DenyReason.fetch_failed)
    assert "CERTIFICATE_VERIFY_FAILED" in result.detail and refusal in result.detail
    assert [record.event for record in audit.records] == [EVENT_CONNECT_DENY]
    assert stub.tools_call_count() == 0


@contextlib.contextmanager
def _tls_peer(pki, reply, *, keep_alive: bool):
    """A ``RawPeer`` that speaks TLS with the leaf for ``127.0.0.1``; yields it and its https URL."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(pki.leaf)
    with RawPeer(reply, keep_alive=keep_alive) as peer:
        peer._server.socket = context.wrap_socket(peer._server.socket, server_side=True)
        yield peer, "https://" + peer.url.removeprefix("http://")


def test_a_tls_peer_that_closes_an_idle_connection_gets_it_replaced(connections, monkeypatch, pki):
    monkeypatch.setenv("SSL_CERT_FILE", pki.ca)
    with _tls_peer(pki, _ok(JSON_RPC_OK), keep_alive=False) as (peer, url):
        fetch = HttpFetcher()
        assert fetch(url + WELL_KNOWN_PATHS[0]) == (200, JSON_RPC_OK)
        assert peer.hung_up.acquire(timeout=5)
        [first] = connections
        assert fetch(url + WELL_KNOWN_PATHS[0]) == (200, JSON_RPC_OK)
    assert len(connections) == 2 and first.sock is None
    assert len(peer.requests) == 2


def test_a_bearer_token_reaches_only_its_own_tls_origin(connections, monkeypatch, pki):
    monkeypatch.setenv("SSL_CERT_FILE", pki.ca)
    with _tls_peer(pki, _ok(JSON_RPC_OK), keep_alive=True) as (first, first_url), _tls_peer(
        pki, _ok(JSON_RPC_OK), keep_alive=True
    ) as (second, second_url):
        secret = HttpTransport(first_url + "/mcp", bearer_provider=lambda: "sesame")
        plain = HttpTransport(second_url + "/mcp")
        for _ in range(3):
            for transport in (secret, plain):
                transport.request({"jsonrpc": "2.0", "id": 1}, {"Content-Type": "application/json"})
            assert HttpFetcher()(first_url + WELL_KNOWN_PATHS[0])[0] == 200
    assert len(connections) == 2 and all(isinstance(c.sock, ssl.SSLSocket) for c in connections)
    posts, gets = _posts(first), [request for request in first.requests if request.startswith(b"GET ")]
    assert len(posts) == len(gets) == len(second.requests) == 3
    assert all(b"\r\nAuthorization: Bearer sesame\r\n" in request for request in posts)
    assert not any(b"sesame" in request for request in gets + second.requests)


def test_an_over_cap_reply_over_tls_closes_its_connection(connections, monkeypatch, pki):
    monkeypatch.setenv("SSL_CERT_FILE", pki.ca)
    replies = iter([OVER_DOCUMENT_CAP, _ok(b"{}")])
    with _tls_peer(pki, lambda request: next(replies), keep_alive=True) as (peer, url):
        fetch = HttpFetcher()
        with pytest.raises(FetchError, match=f"at most {MAX_DOCUMENT_BYTES} bytes"):
            fetch(url + WELL_KNOWN_PATHS[0])
        [first] = connections
        assert first.sock is None
        assert fetch(url + WELL_KNOWN_PATHS[0]) == (200, b"{}")
    assert len(connections) == 2 and len(peer.requests) == 2
