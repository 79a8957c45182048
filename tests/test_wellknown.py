"""Loopback attestation/tool stub: discovery routes, dispatch, counters."""

from __future__ import annotations

import contextlib
import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsa import (
    HttpFetcher,
    StubServer,
    StubServerConfig,
    WELL_KNOWN_PATHS,
    serialize_document,
)
from atsa.wellknown import MAX_REQUEST_BYTES


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _post(url, payload):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture
def server(signed_doc):
    config = StubServerConfig.for_document(
        signed_doc, tool_behaviors={"list_labels": {"labels": ["inbox", "sent"]}}
    )
    stub = StubServer(config).start()
    yield stub
    stub.shutdown()


def test_sad_served_byte_identically_at_both_paths(server, signed_doc):
    expected = serialize_document(signed_doc).encode("utf-8")
    for path in WELL_KNOWN_PATHS:
        status, body = _get(server.url + path)
        assert status == 200
        assert body == expected


def test_unattested_server_404s_both_paths():
    stub = StubServer(StubServerConfig(sad_bytes=None, tool_behaviors={})).start()
    try:
        for path in WELL_KNOWN_PATHS:
            status, _ = _get(stub.url + path)
            assert status == 404
    finally:
        stub.shutdown()


def test_unknown_path_is_404(server):
    status, _ = _get(server.url + "/.well-known/other")
    assert status == 404
    status, _ = _get(server.url + "/")
    assert status == 404


def test_tools_call_constant_behavior(server):
    status, resp = _post(
        server.url + "/mcp",
        {"jsonrpc": "2.0", "id": 7, "method": "tools/call",
         "params": {"name": "list_labels", "arguments": {}}},
    )
    assert status == 200
    assert resp == {"jsonrpc": "2.0", "id": 7, "result": {"labels": ["inbox", "sent"]}}


def test_tools_call_callable_behavior(signed_doc):
    config = StubServerConfig.for_document(
        signed_doc, tool_behaviors={"echo": lambda args: {"got": args}}
    )
    stub = StubServer(config).start()
    try:
        _, resp = _post(
            stub.url + "/mcp",
            {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
             "params": {"name": "echo", "arguments": {"a": 1}}},
        )
        assert resp["result"] == {"got": {"a": 1}}
    finally:
        stub.shutdown()


def test_unknown_tool_is_invalid_params(server):
    _, resp = _post(
        server.url + "/mcp",
        {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
         "params": {"name": "delete_everything", "arguments": {}}},
    )
    assert resp["error"]["code"] == -32602


@pytest.mark.parametrize(
    "params",
    [[1], {"name": ["x"]}, {"name": "list_labels", "arguments": [1]}],
    ids=["params-array", "name-array", "arguments-array"],
)
def test_malformed_params_are_invalid_params(server, params):
    _, resp = _post(
        server.url + "/mcp", {"jsonrpc": "2.0", "id": 4, "method": "tools/call", "params": params}
    )
    assert resp == {"jsonrpc": "2.0", "id": 4, "error": {"code": -32602, "message": "invalid params"}}
    _, resp = _post(
        server.url + "/mcp",
        {"jsonrpc": "2.0", "id": 5, "method": "tools/call",
         "params": {"name": "list_labels", "arguments": {}}},
    )
    assert resp["result"] == {"labels": ["inbox", "sent"]}


def test_unknown_method_is_method_not_found(server):
    _, resp = _post(
        server.url + "/mcp", {"jsonrpc": "2.0", "id": 3, "method": "tools/list"}
    )
    assert resp["error"]["code"] == -32601


def test_parse_error_is_minus_32700(server):
    _, resp = _post(server.url + "/mcp", b"{nope")
    assert resp["error"]["code"] == -32700


def test_a_body_not_in_utf8_is_a_parse_error(server):
    request = {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": {"name": "list_labels"}}
    _, resp = _post(server.url + "/mcp", json.dumps(request).encode("utf-16"))
    assert resp["error"]["code"] == -32700


def test_body_nested_past_the_recursion_limit_is_a_parse_error(server):
    _, resp = _post(server.url + "/mcp", b"[" * 100_000 + b"]" * 100_000)
    assert resp["error"]["code"] == -32700


def test_counters_track_routes(server):
    _get(server.url + WELL_KNOWN_PATHS[0])
    _get(server.url + WELL_KNOWN_PATHS[0])
    _get(server.url + WELL_KNOWN_PATHS[1])
    assert server.tools_call_count() == 0
    _post(
        server.url + "/mcp",
        {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
         "params": {"name": "list_labels", "arguments": {}}},
    )
    counters = server.counters
    assert counters[f"GET {WELL_KNOWN_PATHS[0]}"] == 2
    assert counters[f"GET {WELL_KNOWN_PATHS[1]}"] == 1
    assert server.tools_call_count() == 1


def test_paths_the_stub_does_not_serve_share_one_counter_per_method(server):
    # 5,000 distinct 404 paths on one connection, sent while the replies are read.
    requests = b"".join(b"GET /missing/%d HTTP/1.1\r\nHost: x\r\n\r\n" % n for n in range(4999))
    requests += b"GET /missing/4999 HTTP/1.1\r\nConnection: close\r\n\r\n"
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        sender = threading.Thread(target=sock.sendall, args=(requests,))
        sender.start()
        stream = b"".join(iter(lambda: sock.recv(65536), b""))
        sender.join()
    assert [status for status, _, _ in _replies(stream)] == [404] * 5000
    assert server.counters == {"GET (other)": 5000}


def test_tools_call_count_uses_the_configured_path(signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc, {"list_labels": {}}, mcp_path="/rpc")).start()
    try:
        _post(
            stub.url + "/rpc",
            {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": {"name": "list_labels"}},
        )
        assert stub.tools_call_count() == 1
    finally:
        stub.shutdown()


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_400(server, length):
    connection = http.client.HTTPConnection(server.url.removeprefix("http://"), timeout=5)
    try:
        connection.putrequest("POST", "/mcp")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert "error" in json.loads(response.read())
    finally:
        connection.close()
    _, resp = _post(
        server.url + "/mcp",
        {"jsonrpc": "2.0", "id": 6, "method": "tools/call",
         "params": {"name": "list_labels", "arguments": {}}},
    )
    assert resp == {"jsonrpc": "2.0", "id": 6, "result": {"labels": ["inbox", "sent"]}}


def test_shutdown_is_idempotent_and_preserves_counters(signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc, tool_behaviors={})).start()
    _get(stub.url + WELL_KNOWN_PATHS[0])
    stub.shutdown()
    stub.shutdown()
    assert stub.counters[f"GET {WELL_KNOWN_PATHS[0]}"] == 1
    with pytest.raises(OSError):
        urllib.request.urlopen(stub.url + WELL_KNOWN_PATHS[0], timeout=1)


def test_a_stub_never_started_shuts_down_at_once_and_once(signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc))
    url = stub.url
    # On a thread, so that a shutdown waiting for a serve loop that never ran fails the test.
    closer = threading.Thread(target=lambda: (stub.shutdown(), stub.shutdown()), daemon=True)
    closer.start()
    closer.join(timeout=1)
    assert not closer.is_alive()
    assert stub.counters == {}
    with pytest.raises(OSError):
        urllib.request.urlopen(url + WELL_KNOWN_PATHS[0], timeout=1)


def test_shutdown_ends_the_handler_of_a_kept_alive_connection(signed_doc):
    stub = StubServer(StubServerConfig.for_document(signed_doc)).start()
    before = set(threading.enumerate())
    assert HttpFetcher()(stub.url + WELL_KNOWN_PATHS[0])[0] == 200
    # The fetcher pools its connection, so the stub's handler waits for the next request.
    [handler] = set(threading.enumerate()) - before
    started = time.monotonic()
    stub.shutdown()
    handler.join(timeout=1)
    assert handler not in threading.enumerate()
    assert time.monotonic() - started < 1


def test_for_document_serializes_once(signed_doc):
    config = StubServerConfig.for_document(signed_doc, tool_behaviors={})
    assert config.sad_bytes == serialize_document(signed_doc).encode("utf-8")


def test_kept_alive_gets_are_not_held_back_by_nagle(server):
    # Headers and body leave in two writes; without TCP_NODELAY each reply on
    # a reused connection waits ~40 ms for the client's delayed ACK.
    connection = http.client.HTTPConnection(server.url.removeprefix("http://"), timeout=5)
    try:
        started = time.monotonic()
        for _ in range(50):
            connection.request("GET", WELL_KNOWN_PATHS[0])
            with connection.getresponse() as response:
                assert response.status == 200 and response.read()
        assert time.monotonic() - started < 50 * 0.040 / 4
    finally:
        connection.close()
    assert server.counters[f"GET {WELL_KNOWN_PATHS[0]}"] == 50


def test_oversized_post_body_is_413_and_the_stub_keeps_serving(server):
    connection = http.client.HTTPConnection(server.url.removeprefix("http://"), timeout=5)
    try:
        connection.putrequest("POST", "/mcp")
        connection.putheader("Content-Length", str(10**12))
        connection.endheaders()
        with connection.getresponse() as response:
            assert response.status == 413 and response.will_close
            assert "error" in json.loads(response.read())
    finally:
        connection.close()
    _, resp = _post(
        server.url + "/mcp",
        {"jsonrpc": "2.0", "id": 8, "method": "tools/call", "params": {"name": "list_labels"}},
    )
    assert resp == {"jsonrpc": "2.0", "id": 8, "result": {"labels": ["inbox", "sent"]}}


# The request reader, over raw sockets: what the stub answers to bytes that no
# well-behaved client sends, and how its replies are framed on the wire.
def _raw(stub, data: bytes) -> bytes:
    """All the stub sends on one connection after ``data``, until it closes. A reset
    that follows a refusal of a request it did not read whole ends the read too."""
    with socket.create_connection(stub.server_address[:2], timeout=5) as sock:
        sock.sendall(data)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def _replies(stream: bytes) -> list[tuple[int, dict[bytes, bytes], bytes]]:
    """The ``(status, fields, body)`` of each whole reply in ``stream``, in order; every one has a Content-Length."""
    replies = []
    while stream:
        head, separator, stream = stream.partition(b"\r\n\r\n")
        assert separator, f"a reply head with no end: {head[:80]!r}"
        status_line, *lines = head.split(b"\r\n")
        version, status, _ = status_line.split(b" ", 2)
        assert version == b"HTTP/1.1"
        fields = {name.lower(): value.strip() for name, _, value in (line.partition(b":") for line in lines)}
        if int(status) == 100:
            replies.append((100, fields, b""))
            continue
        length = int(fields[b"content-length"])
        assert len(stream) >= length, "a reply body cut short"
        replies.append((int(status), fields, stream[:length]))
        stream = stream[length:]
    return replies


def _refused(stub, data: bytes, status: int) -> dict:
    """The one reply to ``data``: ``status``, a JSON error body, and ``Connection: close``."""
    [(got, fields, body)] = _replies(_raw(stub, data))
    assert got == status
    assert fields[b"connection"] == b"close" and fields[b"content-type"] == b"application/json"
    return json.loads(body)


DOCUMENT_GET = b"GET " + WELL_KNOWN_PATHS[0].encode() + b" HTTP/1.1\r\n"


@pytest.mark.parametrize(
    "request_line, status",
    [
        (b"GARBAGE", 400),
        (b"GET /", 400),
        (b"GET  / HTTP/1.1", 400),
        (b"GET /caf\xc3\xa9 HTTP/1.1", 400),
        (b"GET / HTTP/1.1 extra", 400),
        (b"GET / HTTP/2.0", 505),
        (b"GET / HTTP/0.9", 505),
    ],
    ids=["garbage", "no-version", "two-spaces", "non-ascii-target", "four-parts", "http-2", "http-0.9"],
)
def test_a_malformed_request_line_or_other_version_gets_a_status_line_and_a_json_error(server, request_line, status):
    assert "error" in _refused(server, request_line + b"\r\nHost: x\r\n\r\n", status)
    assert server.counters == {}


@pytest.mark.parametrize(
    "head",
    [
        DOCUMENT_GET + b"Connection: close\r\nX-Long: " + b"a" * (65537 - len(b"X-Long: \r\n")) + b"\r\n\r\n",
        DOCUMENT_GET + b"Connection: close\r\n" + b"".join(b"X-%d: y\r\n" % n for n in range(100)) + b"\r\n",
    ],
    ids=["65537-byte-line-with-its-crlf", "101-fields"],
)
def test_a_head_over_its_limits_is_431(server, head):
    _refused(server, head, 431)
    assert server.counters == {}


def test_a_head_at_its_limits_is_served(server, signed_doc):
    fields = [b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n"))] + [b"X-%d: y" % n for n in range(98)]
    head = DOCUMENT_GET + b"".join(line + b"\r\n" for line in fields) + b"Connection: close\r\n\r\n"
    [(status, _, body)] = _replies(_raw(server, head))
    assert (status, body) == (200, serialize_document(signed_doc).encode("utf-8"))


@pytest.mark.parametrize(
    "fields",
    [
        b"X-Note: one\r\n  two\r\n",
        b"X-Note: one\r\n\ttwo\r\n",
        b"no colon here\r\n",
        b": no name\r\n",
        b"X-Note : space before the colon\r\n",
        b"Content-Length: 2\r\nContent-Length: 3\r\n",
        b"Content-Length: 2, 3\r\n",
        b"Content-Length: +2\r\n",
        b"Content-Length: " + b"9" * 5000 + b"\r\n",
    ],
    ids=["obs-fold", "obs-fold-tab", "no-colon", "no-name", "space-before-colon", "two-lengths", "length-list",
         "signed-length", "5000-digit-length"],
)
def test_a_malformed_field_line_or_content_length_is_400(server, fields):
    request = b"POST /mcp HTTP/1.1\r\nConnection: close\r\n" + fields + b"\r\n{}"
    assert "error" in _refused(server, request, 400)
    # The stub still serves a request on another connection.
    assert _post(server.url + "/mcp", {"jsonrpc": "2.0", "id": 9, "method": "tools/call",
                                       "params": {"name": "list_labels"}})[0] == 200


def test_identical_repeated_content_lengths_are_one_length(server):
    call = json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call", "params": {"name": "list_labels"}}).encode()
    length = b"%d" % len(call)
    request = (
        b"POST /mcp HTTP/1.1\r\nContent-Length: " + length + b"\r\nContent-Length: " + length
        + b"\r\nConnection: close\r\n\r\n" + call
    )
    [(status, _, body)] = _replies(_raw(server, request))
    assert (status, json.loads(body)) == (200, {"jsonrpc": "2.0", "id": 3, "result": {"labels": ["inbox", "sent"]}})


@pytest.mark.parametrize("method", [b"PUT", b"HEAD", b"DELETE"])
def test_a_method_other_than_get_and_post_is_501(server, method):
    _refused(server, method + b" /mcp HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501)
    assert server.counters == {}


def test_a_transfer_coding_is_501(server):
    _refused(server, b"POST /mcp HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 501)


def test_an_over_long_body_is_413_before_a_byte_of_it_is_sent(server):
    head = b"POST /mcp HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n" % (MAX_REQUEST_BYTES + 1)
    with socket.create_connection(server.server_address[:2], timeout=2) as sock:
        sock.sendall(head)  # and no body: a stub that waits for it fails the read below
        [(status, fields, body)] = _replies(b"".join(iter(lambda: sock.recv(65536), b"")))
    assert (status, fields[b"connection"], json.loads(body)) == (413, b"close", {"error": "request body too large"})


def test_http_1_0_closes_after_its_reply_unless_kept_alive(server, signed_doc):
    document = serialize_document(signed_doc).encode("utf-8")
    get = b"GET " + WELL_KNOWN_PATHS[0].encode() + b" HTTP/1.0\r\n"
    [(status, fields, body)] = _replies(_raw(server, get + b"\r\n" + get + b"\r\n"))
    assert (status, fields[b"connection"], body) == (200, b"close", document)
    replies = _replies(_raw(server, get + b"Connection: keep-alive\r\n\r\n" + get + b"\r\n"))
    assert [(status, body) for status, _, body in replies] == [(200, document)] * 2
    assert b"connection" not in replies[0][1] and replies[1][1][b"connection"] == b"close"


def test_pipelined_requests_in_one_write_are_answered_in_order(server, signed_doc):
    call = json.dumps({"jsonrpc": "2.0", "id": 4, "method": "tools/call", "params": {"name": "list_labels"}}).encode()
    stream = (
        DOCUMENT_GET + b"\r\n"
        + b"POST /mcp HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(call) + call
        + b"GET /nowhere HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    replies = _replies(_raw(server, stream))
    assert [(status, body) for status, _, body in replies] == [
        (200, serialize_document(signed_doc).encode("utf-8")),
        (200, b'{"jsonrpc": "2.0", "id": 4, "result": {"labels": ["inbox", "sent"]}}'),
        (404, b'{"error": "not found"}'),
    ]


def test_expect_100_continue_gets_100_and_then_the_reply(server):
    call = json.dumps({"jsonrpc": "2.0", "id": 5, "method": "tools/call", "params": {"name": "list_labels"}}).encode()
    head = b"POST /mcp HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(call)
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(head)
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(call)
        [(status, _, body)] = _replies(sock.recv(65536))
    assert (status, json.loads(body)["result"]) == (200, {"labels": ["inbox", "sent"]})
    assert server.tools_call_count() == 1


def test_each_reply_arrives_whole_in_one_read(server, signed_doc):
    # The status line, the fields and the body leave in one write, so the first
    # read after a request already holds the whole reply.
    document = serialize_document(signed_doc).encode("utf-8")
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        for _ in range(30):
            sock.sendall(DOCUMENT_GET + b"\r\n")
            [(status, fields, body)] = _replies(sock.recv(65536))
            assert (status, body) == (200, document)
            assert set(fields) == {b"content-type", b"content-length", b"date"}
            assert re.fullmatch(rb"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT", fields[b"date"])


# Bytes that look like requests, or parts of them, and bytes that do not.
_PIECES = st.sampled_from(
    [
        b"GET ", b"POST ", b"PUT ", b"/mcp", WELL_KNOWN_PATHS[0].encode(), b" HTTP/1.1", b" HTTP/1.0",
        b" HTTP/2.0", b"\r\n", b"\n", b"\r\n\r\n", b": ", b" ", b"\t", b"Content-Length: ", b"Content-Length: 2",
        b"Connection: close", b"Connection: keep-alive", b"Expect: 100-continue", b"Transfer-Encoding: chunked",
        b"0", b"99", b"-1", b"{}", b'{"jsonrpc": "2.0", "id": 1, "method": "tools/call"}', b"\x00", b"\xff",
    ]
)
_STREAMS = st.lists(st.one_of(_PIECES, st.binary(max_size=24)), max_size=40).map(b"".join)


DOCUMENT = b'{"served": "as configured, byte for byte"}'


@pytest.fixture(scope="module")
def lasting_stub():
    """One stub for every example of a property, so that each meets what the ones before it left."""
    stub = StubServer(StubServerConfig(sad_bytes=DOCUMENT, tool_behaviors={"list_labels": {}})).start()
    yield stub
    stub.shutdown()


@given(stream=_STREAMS)
@settings(deadline=None)
def test_no_bytes_on_one_connection_stop_the_stub(lasting_stub, stream):
    with socket.create_connection(lasting_stub.server_address[:2], timeout=5) as sock:
        try:
            sock.sendall(stream)
            with contextlib.suppress(OSError):  # not connected: the stub has already reset it
                sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):
                pass
        except (BrokenPipeError, ConnectionResetError):
            pass  # the stub refused the stream and closed before reading all of it
    [(status, _, body)] = _replies(_raw(lasting_stub, DOCUMENT_GET + b"Connection: close\r\n\r\n"))
    assert (status, body) == (200, DOCUMENT)
