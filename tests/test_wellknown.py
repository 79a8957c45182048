"""Loopback attestation/tool stub: discovery routes, dispatch, counters."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from atsa import (
    HttpFetcher,
    StubServer,
    StubServerConfig,
    WELL_KNOWN_PATHS,
    serialize_document,
)


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
