"""Registry, closed tool allowlists, and guarded JSON-RPC dispatch."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from atsa import (
    AdmissionGate,
    AuditLog,
    CountingTransport,
    DenyReason,
    DispatchStatus,
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    EVENT_TOOL_DENY,
    Flavor,
    Gateway,
    HttpTransport,
    JsonRpcError,
    RegistryEntry,
    RegistryError,
    RegistryFrozenError,
    ServerRegistry,
    ToolCall,
    TransportError,
    jsonrpc_tools_call,
    load_registry_file,
)
from atsa.gateway import TOOL_DENY_DETAIL
from conftest import FIXED_NOW, SERVER_URL, fetcher_for

ALLOWED = frozenset({"list_labels", "create_draft"})


def _entry(transport, endpoint=SERVER_URL, tools=ALLOWED, skip=False):
    return RegistryEntry(
        endpoint=endpoint,
        bridge_id="bridge-1",
        required_clearance="restricted-plus",
        allowed_tools=frozenset(tools),
        transport=transport,
        skip_clearance_preflight=skip,
    )


def test_register_and_get():
    registry = ServerRegistry()
    transport = CountingTransport()
    entry = _entry(transport)
    registry.register(entry)
    assert registry.get(SERVER_URL) is entry
    assert registry.get("https://other.example/mcp") is None
    assert registry.endpoints() == (SERVER_URL,)


def test_register_duplicate_requires_replace():
    registry = ServerRegistry()
    registry.register(_entry(CountingTransport()))
    with pytest.raises(RegistryError):
        registry.register(_entry(CountingTransport()))
    swapped = _entry(CountingTransport(), tools={"list_labels"})
    registry.register(swapped, replace=True)
    assert registry.get(SERVER_URL) is swapped


def test_freeze_is_one_way():
    registry = ServerRegistry()
    registry.register(_entry(CountingTransport()))
    assert not registry.frozen
    registry.freeze()
    registry.freeze()  # idempotent
    assert registry.frozen
    with pytest.raises(RegistryFrozenError):
        registry.register(_entry(CountingTransport(), endpoint="https://new.example/mcp"))
    with pytest.raises(RegistryFrozenError):
        registry.register(_entry(CountingTransport()), replace=True)
    assert registry.endpoints() == (SERVER_URL,)


def _wired_gateway(scheme, trust_root, doc, *, tools=ALLOWED, skip=False, flavor=Flavor.enclaved):
    fetcher = fetcher_for(doc)
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gate = AdmissionGate(
        scheme=scheme, trust_root=trust_root, fetcher=fetcher, audit=audit,
        clock=lambda: FIXED_NOW,
    )
    transport = CountingTransport({"list_labels": {"labels": ["inbox"]}})
    registry = ServerRegistry()
    registry.register(_entry(transport, tools=tools, skip=skip))
    registry.freeze()
    gateway = Gateway(registry=registry, gate=gate, audit=audit, flavor=flavor)
    return gateway, transport, fetcher, audit


def test_invoke_allowlisted_tool_dispatches(scheme, trust_root, signed_doc):
    gateway, transport, _, audit = _wired_gateway(scheme, trust_root, signed_doc)
    result = gateway.invoke(SERVER_URL, ToolCall("list_labels", {"q": "inbox"}))
    assert result.status == DispatchStatus.ok
    assert result.payload == {"labels": ["inbox"]}
    assert transport.calls == 1
    assert [rec.event for rec in audit.records] == [EVENT_CONNECT_ALLOW]


def test_invoke_unlisted_tool_denied_with_zero_transport_calls(scheme, trust_root, signed_doc):
    gateway, transport, fetcher, audit = _wired_gateway(scheme, trust_root, signed_doc)
    result = gateway.invoke(SERVER_URL, ToolCall("delete_everything", {}))
    assert result.status == DispatchStatus.denied
    assert result.reason == DenyReason.tool_not_admitted
    assert transport.calls == 0
    assert fetcher.requests == []  # denied before the gate ever runs
    (record,) = audit.records
    assert record.event == EVENT_TOOL_DENY
    assert record.payload == {
        "server": SERVER_URL,
        "bridge": "bridge-1",
        "toolName": "delete_everything",
        "reason": TOOL_DENY_DETAIL,
    }
    # Membership is byte-exact, and an unknown endpoint admits nothing.
    for endpoint, name in (
        (SERVER_URL, "List_Labels"),
        (SERVER_URL, "list_labels "),
        (SERVER_URL, "delete_everything"),
        ("https://unknown.example/mcp", "list_labels"),
    ):
        assert gateway.invoke(endpoint, ToolCall(name, {})).status == DispatchStatus.denied
    assert transport.calls == 0
    assert gateway.invoke(SERVER_URL, ToolCall("list_labels", {})).status == DispatchStatus.ok


def test_invoke_chained_name_is_denied(scheme, trust_root, signed_doc):
    gateway, transport, _, _ = _wired_gateway(scheme, trust_root, signed_doc)
    result = gateway.invoke(SERVER_URL, ToolCall("list_labels; delete_everything", {}))
    assert result.status == DispatchStatus.denied
    assert result.reason == DenyReason.tool_not_admitted
    assert transport.calls == 0


def test_invoke_unregistered_endpoint(scheme, trust_root, signed_doc):
    gateway, transport, _, audit = _wired_gateway(scheme, trust_root, signed_doc)
    result = gateway.invoke("https://rogue.example/mcp", ToolCall("list_labels", {}))
    assert result.status == DispatchStatus.denied
    assert result.reason == DenyReason.no_registered_bridge
    assert transport.calls == 0
    # the informational gate run is audited (deny: nothing served there)
    (record,) = audit.records
    assert record.event == EVENT_CONNECT_DENY


def test_invoke_failing_gate_denies_before_transport(scheme, trust_root, baseline_doc):
    gateway, transport, _, audit = _wired_gateway(scheme, trust_root, baseline_doc)
    result = gateway.invoke(SERVER_URL, ToolCall("list_labels", {}))
    assert result.status == DispatchStatus.denied
    assert result.reason == DenyReason.unsigned
    assert transport.calls == 0
    assert [rec.event for rec in audit.records] == [EVENT_CONNECT_DENY]


def test_invoke_open_flavor_still_denies_dispatch_on_gate_failure(scheme, trust_root, baseline_doc):
    gateway, transport, _, audit = _wired_gateway(
        scheme, trust_root, baseline_doc, flavor=Flavor.open
    )
    result = gateway.invoke(SERVER_URL, ToolCall("list_labels", {}))
    assert result.status == DispatchStatus.denied
    assert transport.calls == 0
    assert [rec.event for rec in audit.records] == [EVENT_CONNECT_WARN]


def test_invoke_skip_preflight_entry(scheme, trust_root, signed_doc):
    gateway, transport, fetcher, audit = _wired_gateway(
        scheme, trust_root, signed_doc, skip=True
    )
    result = gateway.invoke(SERVER_URL, ToolCall("list_labels", {}))
    assert result.status == DispatchStatus.ok
    assert fetcher.requests == []
    assert transport.calls == 1
    (record,) = audit.records
    assert record.event == EVENT_CONNECT_ALLOW
    assert record.payload["preflight"] == "skipped"


def test_gate_reruns_on_every_dispatch(scheme, trust_root, signed_doc):
    gateway, transport, fetcher, _ = _wired_gateway(scheme, trust_root, signed_doc)
    for _ in range(4):
        gateway.invoke(SERVER_URL, ToolCall("list_labels", {}))
    assert transport.calls == 4
    assert len(fetcher.requests) == 4  # one verification per dispatch


def test_every_invoke_is_audited(scheme, trust_root, signed_doc):
    gateway, _, _, audit = _wired_gateway(scheme, trust_root, signed_doc)
    gateway.invoke(SERVER_URL, ToolCall("list_labels", {}))
    gateway.invoke(SERVER_URL, ToolCall("nope", {}))
    gateway.invoke("https://rogue.example/mcp", ToolCall("x", {}))
    assert len(audit.records) == 3


def test_envelope_shape_and_monotonic_ids():
    transport = CountingTransport()
    first = jsonrpc_tools_call(transport, ToolCall("list_labels", {"q": 1}))
    second = jsonrpc_tools_call(transport, ToolCall("create_draft", {"to": "a@b"}))
    assert first == {"tool": "list_labels", "echo": {"q": 1}}
    assert second == {"tool": "create_draft", "echo": {"to": "a@b"}}
    (env1, headers1), (env2, _) = transport.requests
    assert env1 == {
        "jsonrpc": "2.0",
        "id": 1,
        "method": "tools/call",
        "params": {"name": "list_labels", "arguments": {"q": 1}},
    }
    assert env2["id"] == 2
    assert headers1["Content-Type"] == "application/json"
    assert "Authorization" not in headers1


def test_bearer_token_header():
    transport = CountingTransport()
    transport.bearer_provider = lambda: "sesame"
    jsonrpc_tools_call(transport, ToolCall("list_labels", {}))
    _, headers = transport.requests[0]
    assert headers["Authorization"] == "Bearer sesame"


class _ScriptedTransport:
    def __init__(self, response):
        self.response = response
        self._id = 0

    def next_id(self):
        self._id += 1
        return self._id

    def request(self, payload, headers):
        resp = self.response
        return resp(payload) if callable(resp) else resp


class _Origin:
    """Loopback HTTP origin that records each request's path and headers and
    answers with ``respond(handler)``."""

    def __init__(self, respond):
        origin = self
        self.seen = []

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):
                pass

            def _handle(self):
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                origin.seen.append((self.command, self.path, dict(self.headers)))
                respond(self)

            do_GET = do_POST = _handle

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


def _redirect_to(location):
    def respond(handler):
        handler.send_response(302)
        handler.send_header("Location", location)
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    return respond


def _json_rpc_ok(handler):
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "result": {}}).encode("utf-8")
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


def test_http_transport_keeps_bearer_token_on_its_origin():
    elsewhere = _Origin(_json_rpc_ok)
    redirecting = _Origin(_redirect_to(elsewhere.url + "/mcp"))
    try:
        transport = HttpTransport(redirecting.url + "/mcp", bearer_provider=lambda: "sesame", timeout=5)
        with pytest.raises(TransportError, match="cross-origin redirect refused"):
            jsonrpc_tools_call(transport, ToolCall("list_labels", {}))
        [(method, path, headers)] = redirecting.seen
        assert (method, path, headers["Authorization"]) == ("POST", "/mcp", "Bearer sesame")
        assert elsewhere.seen == []
    finally:
        redirecting.close()
        elsewhere.close()


def test_error_member_raises_jsonrpc_error():
    transport = _ScriptedTransport(
        lambda p: {"jsonrpc": "2.0", "id": p["id"],
                   "error": {"code": -32601, "message": "method not found"}}
    )
    with pytest.raises(JsonRpcError) as exc_info:
        jsonrpc_tools_call(transport, ToolCall("x", {}))
    assert exc_info.value.error["code"] == -32601


@pytest.mark.parametrize(
    "response",
    [
        "not a dict",
        {"id": 1, "result": {}},                                # missing jsonrpc
        {"jsonrpc": "2.0", "id": 999, "result": {}},            # wrong id
        {"jsonrpc": "2.0", "id": 1},                            # neither result nor error
    ],
)
def test_malformed_responses_raise_transport_error(response):
    with pytest.raises(TransportError):
        jsonrpc_tools_call(_ScriptedTransport(response), ToolCall("x", {}))


def test_invoke_maps_jsonrpc_error_to_transport_error(scheme, trust_root, signed_doc):
    erroring = _ScriptedTransport(
        lambda p: {"jsonrpc": "2.0", "id": p["id"], "error": {"code": -32000, "message": "boom"}}
    )
    audit = AuditLog(clock=lambda: FIXED_NOW)
    gate = AdmissionGate(
        scheme=scheme, trust_root=trust_root, fetcher=fetcher_for(signed_doc),
        audit=audit, clock=lambda: FIXED_NOW,
    )
    registry = ServerRegistry()
    registry.register(_entry(erroring))
    gateway = Gateway(registry=registry, gate=gate, audit=audit, flavor=Flavor.enclaved)
    result = gateway.invoke(SERVER_URL, ToolCall("list_labels", {}))
    assert result.status == DispatchStatus.transport_error
    assert result.error["code"] == -32000


def test_load_registry_file_round_trip(monkeypatch):
    raw = json.dumps(
        {
            "entries": [
                {
                    "endpoint": SERVER_URL,
                    "bridgeId": "bridge-1",
                    "requiredClearance": "restricted-plus",
                    "allowedTools": ["list_labels", "create_draft"],
                    "skipClearancePreflight": False,
                    "transport": {"url": SERVER_URL, "bearerTokenEnv": "ATSA_TEST_TOKEN"},
                }
            ]
        }
    )
    (entry,) = load_registry_file(raw)
    assert entry.endpoint == SERVER_URL
    assert entry.bridge_id == "bridge-1"
    assert entry.allowed_tools == ALLOWED
    assert entry.skip_clearance_preflight is False
    # the bearer provider reads the environment at call time, not load time
    monkeypatch.setenv("ATSA_TEST_TOKEN", "late-bound")
    assert entry.transport.bearer_provider() == "late-bound"


def test_load_registry_file_accepts_bare_array():
    raw = json.dumps(
        [
            {
                "endpoint": SERVER_URL,
                "bridgeId": "b",
                "requiredClearance": "internal",
                "allowedTools": [],
            }
        ]
    )
    (entry,) = load_registry_file(raw)
    assert entry.allowed_tools == frozenset()
    assert entry.transport.url == SERVER_URL


@pytest.mark.parametrize(
    "broken",
    [
        '{"entries": "x"}',
        '[{"endpoint": "https://x/mcp"}]',
        '[{"endpoint": "https://x/mcp", "bridgeId": "b", "requiredClearance": "r", "allowedTools": "oops"}]',
        "not json",
    ],
)
def test_load_registry_file_rejects_malformed(broken):
    with pytest.raises(RegistryError):
        load_registry_file(broken)
