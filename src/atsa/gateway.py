"""Per-server tool allowlists and gated JSON-RPC dispatch.

The registry maps endpoint URLs to bridge entries; each entry carries a
closed allowlist of exact tool names. Dispatch re-runs the connection gate on
every call, so a server cannot be admitted once and then drift. A denied
dispatch never touches the transport.

Allowlist matching is byte-exact by design: no trimming, case folding, or
unicode normalization. Anything that is not exactly an allowlisted name is
denied, which is what defeats whitespace, homoglyph, separator-chaining, and
near-miss evasions.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping, NamedTuple, Protocol

from ._json import read_json
from .admission import AdmissionGate, DenyReason, FetchError, Flavor, exchange, origin_of, redacted, split_url
from .audit import EVENT_CONNECT_DENY, EVENT_TOOL_DENY, AuditLog, bounded

__all__ = [
    "DispatchResult",
    "DispatchStatus",
    "Gateway",
    "HttpTransport",
    "JsonRpcError",
    "RegistryEntry",
    "RegistryError",
    "RegistryFrozenError",
    "ServerRegistry",
    "ToolCall",
    "Transport",
    "TransportError",
    "jsonrpc_tools_call",
    "load_registry_file",
]

TOOL_DENY_DETAIL = "not in allowedTools"

# A tools/call reply is read whole before it is decoded; a larger one is refused.
MAX_REPLY_BYTES = 16 * 1024 * 1024


class RegistryError(ValueError):
    """Invalid registry entry or duplicate registration."""


class RegistryFrozenError(RuntimeError):
    """Attempt to change a frozen registry."""


class TransportError(Exception):
    """Tool-call transport failed: network, HTTP, or malformed response."""


class JsonRpcError(TransportError):
    """Server answered with a JSON-RPC error member."""

    def __init__(self, error: Mapping[str, Any]) -> None:
        super().__init__(f"JSON-RPC error: {dict(error)!r}")
        self.error = dict(error)


class Transport(Protocol):
    """Carries one JSON-RPC envelope to a tool server and returns the decoded
    reply, raising TransportError when the exchange fails."""

    def next_id(self) -> int: ...

    def request(self, payload: Mapping[str, Any], headers: Mapping[str, str]) -> Any: ...


@dataclass(frozen=True)
class ToolCall:
    tool_name: str
    arguments: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RegistryEntry:
    """One registered bridge: where it lives, what clearance its endpoint must
    prove, and exactly which tools may cross."""

    endpoint: str
    bridge_id: str
    required_clearance: str
    allowed_tools: frozenset[str]
    transport: Transport
    skip_clearance_preflight: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_tools", frozenset(self.allowed_tools))
        for name in ("endpoint", "bridge_id", "required_clearance"):  # each is written to the log as a string
            if type(value := getattr(self, name)) is not str:
                raise RegistryError(f"entry {name} must be a str, not {type(value).__name__}")
            if not value:
                raise RegistryError(f"entry {name} must be non-empty")


class ServerRegistry:
    """Endpoint-keyed entry store with a one-way freeze. Registering an
    endpoint twice is an error."""

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self._frozen = False
        self._mutex = threading.Lock()

    def register(self, entry: RegistryEntry) -> None:
        with self._mutex:
            if self._frozen:
                raise RegistryFrozenError("registry is frozen; registration refused")
            if entry.endpoint in self._entries:
                raise RegistryError(f"endpoint already registered: {entry.endpoint!r}")
            self._entries[entry.endpoint] = entry

    def freeze(self) -> None:
        """One-way freeze. Idempotent."""
        with self._mutex:
            self._frozen = True

    def get(self, endpoint: str) -> RegistryEntry | None:
        return self._entries.get(endpoint)


class DispatchStatus(str, Enum):
    ok = "ok"
    denied = "denied"
    transport_error = "transport_error"


class DispatchResult(NamedTuple):
    status: DispatchStatus
    payload: Any = None
    reason: DenyReason | None = None
    detail: str = ""
    error: Mapping[str, Any] | None = None

    @classmethod
    def ok(cls, payload: Any) -> "DispatchResult":
        return cls(DispatchStatus.ok, payload)

    @classmethod
    def denied(cls, reason: DenyReason, detail: str = "") -> "DispatchResult":
        return cls(DispatchStatus.denied, None, reason, detail)

    @classmethod
    def transport_error(cls, error: Mapping[str, Any], detail: str = "") -> "DispatchResult":
        return cls(DispatchStatus.transport_error, None, None, detail, dict(error))


class HttpTransport:
    """POSTs JSON-RPC envelopes to a fixed URL through ``exchange``: the bearer
    token from the optional provider never leaves the URL's origin, a reply over
    ``MAX_REPLY_BYTES`` is refused, a POST is never resent. Ids count up from 1."""

    def __init__(self, url: str, bearer_provider: Callable[[], str] | None = None) -> None:
        self.url = url
        self.bearer_provider = bearer_provider
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def request(self, payload: Mapping[str, Any], headers: Mapping[str, str]) -> Any:
        if self.bearer_provider is not None:
            headers = {**headers, "Authorization": f"Bearer {self.bearer_provider()}"}
        data = json.dumps(payload).encode("utf-8")
        try:
            status, body = exchange(self.url, headers, limit=MAX_REPLY_BYTES, data=data)
        except FetchError as exc:
            raise TransportError(str(exc)) from exc
        if not 200 <= status < 300:
            raise TransportError(f"POST {self.url} returned status {status}")
        return read_json(body, TransportError, f"POST {self.url} failed")


def jsonrpc_tools_call(transport: Transport, call: ToolCall) -> Any:
    """Send one tools/call request and return its result member.

    Raises JsonRpcError when the server answers with an error member and
    TransportError for any transport or envelope problem (including a
    response id that does not match the request id).
    """
    request_id = transport.next_id()
    envelope = {
        "jsonrpc": "2.0",
        "id": request_id,
        "method": "tools/call",
        "params": {"name": call.tool_name, "arguments": dict(call.arguments)},
    }
    headers = {"Content-Type": "application/json", "Accept": "application/json"}
    response = transport.request(envelope, headers)
    if not isinstance(response, dict) or response.get("jsonrpc") != "2.0":
        raise TransportError(f"malformed JSON-RPC response: {response!r}")
    reply_id = response.get("id")
    # JSON-RPC 2.0, section 4: an id is a string, a number or null, so true is none of them, though it equals 1.
    if reply_id != request_id or type(reply_id) is bool:
        raise TransportError(f"response id {reply_id!r} does not match request id {request_id}")
    if "error" in response:
        error = response["error"]
        raise JsonRpcError(error if isinstance(error, Mapping) else {"message": error})
    if "result" not in response:
        raise TransportError("JSON-RPC response carries neither result nor error")
    return response["result"]


class Gateway:
    """Dispatch front door: allowlist check, fresh admission gate run, then
    JSON-RPC transport. Every decision is audited."""

    def __init__(
        self, registry: ServerRegistry, gate: AdmissionGate, audit: AuditLog, flavor: Flavor = Flavor.open
    ) -> None:
        self.registry = registry
        self.gate = gate
        self.audit = audit
        self.flavor = flavor

    def invoke(self, endpoint: str, call: ToolCall) -> DispatchResult:
        entry = self.registry.get(endpoint)
        if entry is None:
            # Never dispatchable, so nothing is fetched from the URL the agent
            # named; the refusal is audited like any other connect denial.
            detail = f"no registered bridge for {redacted(endpoint)!r}"
            self.audit.append(
                EVENT_CONNECT_DENY, {"reason": DenyReason.no_registered_bridge.value, "detail": bounded(detail)}
            )
            return DispatchResult.denied(DenyReason.no_registered_bridge, detail)

        # Only an exact str is looked up, as a subclass can match any name; any other is logged as null.
        named = type(call.tool_name) is str
        if not named or call.tool_name not in entry.allowed_tools:
            self.audit.append(
                EVENT_TOOL_DENY,
                {"server": endpoint, "bridge": entry.bridge_id, "toolName": bounded(call.tool_name) if named else None,
                 "reason": TOOL_DENY_DETAIL},
            )
            shown = repr(call.tool_name) if named else f"name of type {type(call.tool_name).__name__}"
            detail = f"tool {shown} is {TOOL_DENY_DETAIL}"
            return DispatchResult(DispatchStatus.denied, None, DenyReason.tool_not_admitted, detail)

        verdict = self.gate.connect(
            endpoint, entry.required_clearance, self.flavor,
            skip_clearance_preflight=entry.skip_clearance_preflight,
        )
        if not verdict.allowed:
            return DispatchResult.denied(verdict.reason, verdict.detail)

        try:
            result = jsonrpc_tools_call(entry.transport, call)
        except JsonRpcError as exc:
            return DispatchResult.transport_error(exc.error, str(exc))
        except TransportError as exc:
            return DispatchResult.transport_error({"message": str(exc)}, str(exc))
        return DispatchResult.ok(result)


def load_registry_file(raw: bytes | str) -> list[RegistryEntry]:
    """Parse the registry file format: an array of entries with an ``http``
    transport block. Bearer tokens come from the named environment variable
    at call time, never from the file itself."""
    data = read_json(raw, RegistryError, "registry file is not valid JSON")
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list):
        raise RegistryError("registry file must be an array of entries (or {'entries': [...]})")
    entries: list[RegistryEntry] = []
    for item in data:
        if not isinstance(item, dict):
            raise RegistryError("each registry entry must be a JSON object")
        try:
            endpoint = item["endpoint"]
            bridge_id = item["bridgeId"]
            required = item["requiredClearance"]
            allowed = item["allowedTools"]
        except KeyError as exc:
            raise RegistryError(f"registry entry missing field {exc.args[0]!r}") from exc
        for name, value in (("endpoint", endpoint), ("bridgeId", bridge_id), ("requiredClearance", required)):
            _require_nonempty_string(value, name)
        if not isinstance(allowed, list) or any(not isinstance(t, str) for t in allowed):
            raise RegistryError("'allowedTools' must be an array of strings")
        skip_preflight = item.get("skipClearancePreflight", False)
        if not isinstance(skip_preflight, bool):
            raise RegistryError("'skipClearancePreflight' must be a JSON boolean")
        transport_spec = {} if item.get("transport") is None else item["transport"]
        if not isinstance(transport_spec, dict):
            raise RegistryError("'transport' must be a JSON object, or null")
        url = _require_nonempty_string(transport_spec.get("url", endpoint), "transport.url")
        if (origin := _origin(url)) != (home := _origin(endpoint)):
            # The document is fetched from the endpoint's origin; a tools/call to
            # another would reach a server nothing verified, with the bearer token.
            raise RegistryError(f"'transport.url' origin {origin} differs from 'endpoint' origin {home}")
        bearer_env = transport_spec.get("bearerTokenEnv")
        provider: Callable[[], str] | None = None
        if bearer_env is not None:
            provider = _env_token_provider(_require_nonempty_string(bearer_env, "bearerTokenEnv"))
        transport = HttpTransport(url, bearer_provider=provider)
        entries.append(
            RegistryEntry(
                endpoint=endpoint,
                bridge_id=bridge_id,
                required_clearance=required,
                allowed_tools=frozenset(allowed),
                transport=transport,
                skip_clearance_preflight=skip_preflight,
            )
        )
    return entries


def _origin(url: str) -> str:
    """``scheme://host:port`` of the http(s) URL ``url``, its default port filled in."""
    try:
        scheme, host, port = origin_of(*split_url(url))
    except ValueError as exc:
        raise RegistryError(f"bad URL {redacted(url)!r}: {exc}") from exc
    return f"{scheme}://{host}:{port}"


def _require_nonempty_string(value: Any, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise RegistryError(f"{name!r} must be a non-empty string")
    return value


def _env_token_provider(name: str) -> Callable[[], str]:
    def provider() -> str:
        value = os.environ.get(name)
        if value is None:
            raise TransportError(f"bearer token environment variable {name!r} is not set")
        return value

    return provider
