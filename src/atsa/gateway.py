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
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping

from .admission import AdmissionGate, ConnectStatus, DenyReason, Flavor, SameOriginRedirects
from .audit import EVENT_CONNECT_DENY, EVENT_TOOL_DENY, AuditLog

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
    "TransportError",
    "jsonrpc_tools_call",
    "load_registry_file",
]

TOOL_DENY_DETAIL = "not in allowedTools"


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
    transport: Any
    skip_clearance_preflight: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_tools", frozenset(self.allowed_tools))
        if not self.endpoint:
            raise RegistryError("entry endpoint must be non-empty")
        if not self.bridge_id:
            raise RegistryError("entry bridge_id must be non-empty")


class ServerRegistry:
    """Endpoint-keyed entry store with a one-way freeze. Pre-freeze an entry
    may be replaced explicitly; duplicates without ``replace`` are errors."""

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self._frozen = False
        self._mutex = threading.Lock()

    @property
    def frozen(self) -> bool:
        return self._frozen

    def register(self, entry: RegistryEntry, *, replace: bool = False) -> None:
        with self._mutex:
            if self._frozen:
                raise RegistryFrozenError("registry is frozen; registration refused")
            if entry.endpoint in self._entries and not replace:
                raise RegistryError(f"endpoint already registered: {entry.endpoint!r}")
            self._entries[entry.endpoint] = entry

    def freeze(self) -> None:
        """One-way freeze. Idempotent."""
        with self._mutex:
            self._frozen = True

    def get(self, endpoint: str) -> RegistryEntry | None:
        return self._entries.get(endpoint)

    def endpoints(self) -> tuple[str, ...]:
        return tuple(self._entries)


class DispatchStatus(str, Enum):
    ok = "ok"
    denied = "denied"
    transport_error = "transport_error"


@dataclass(frozen=True)
class DispatchResult:
    status: DispatchStatus
    payload: Any = None
    reason: DenyReason | None = None
    detail: str = ""
    error: Mapping[str, Any] | None = None

    @classmethod
    def ok(cls, payload: Any) -> "DispatchResult":
        return cls(status=DispatchStatus.ok, payload=payload)

    @classmethod
    def denied(cls, reason: DenyReason, detail: str = "") -> "DispatchResult":
        return cls(status=DispatchStatus.denied, reason=reason, detail=detail)

    @classmethod
    def transport_error(cls, error: Mapping[str, Any], detail: str = "") -> "DispatchResult":
        return cls(status=DispatchStatus.transport_error, error=dict(error), detail=detail)


class HttpTransport:
    """POSTs JSON-RPC envelopes to a fixed URL. Request ids are monotonically
    increasing integers; an optional bearer provider adds Authorization.
    Redirects are followed within the URL's origin only, so the bearer token
    never leaves it."""

    def __init__(
        self,
        url: str,
        bearer_provider: Callable[[], str] | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.url = url
        self.bearer_provider = bearer_provider
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._opener = urllib.request.build_opener(SameOriginRedirects(TransportError))

    def next_id(self) -> int:
        return next(self._ids)

    def request(self, payload: Mapping[str, Any], headers: Mapping[str, str]) -> Any:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(self.url, data=body, headers=dict(headers), method="POST")
        try:
            with self._opener.open(request, timeout=self.timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            raise TransportError(f"POST {self.url} returned status {exc.code}") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"POST {self.url} failed: {exc}") from exc
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise TransportError(f"response from {self.url} is not valid JSON") from exc


def jsonrpc_tools_call(transport: Any, call: ToolCall) -> Any:
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
    provider = getattr(transport, "bearer_provider", None)
    if provider is not None:
        headers["Authorization"] = f"Bearer {provider()}"
    response = transport.request(envelope, headers)
    if not isinstance(response, dict) or response.get("jsonrpc") != "2.0":
        raise TransportError(f"malformed JSON-RPC response: {response!r}")
    if response.get("id") != request_id:
        raise TransportError(
            f"response id {response.get('id')!r} does not match request id {request_id}"
        )
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
        self,
        registry: ServerRegistry,
        gate: AdmissionGate,
        audit: AuditLog,
        flavor: Flavor = Flavor.open,
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
            detail = f"no registered bridge for {endpoint!r}"
            self.audit.append(
                EVENT_CONNECT_DENY, {"reason": DenyReason.no_registered_bridge.value, "detail": detail}
            )
            return DispatchResult.denied(DenyReason.no_registered_bridge, detail)

        if call.tool_name not in entry.allowed_tools:
            self.audit.append(
                EVENT_TOOL_DENY,
                {
                    "server": endpoint,
                    "bridge": entry.bridge_id,
                    "toolName": call.tool_name,
                    "reason": TOOL_DENY_DETAIL,
                },
            )
            return DispatchResult.denied(
                DenyReason.tool_not_admitted,
                f"tool {call.tool_name!r} is {TOOL_DENY_DETAIL}",
            )

        connection = self.gate.connect(
            endpoint,
            entry.required_clearance,
            self.flavor,
            skip_clearance_preflight=entry.skip_clearance_preflight,
        )
        if connection.status is not ConnectStatus.ok:
            verdict = connection.verdict
            reason = verdict.reason if verdict.reason is not None else DenyReason.fetch_failed
            return DispatchResult.denied(reason, verdict.detail)

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
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise RegistryError(f"registry file is not valid JSON: {exc}") from exc
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
        if not isinstance(allowed, list) or any(not isinstance(t, str) for t in allowed):
            raise RegistryError("'allowedTools' must be an array of strings")
        transport_spec = item.get("transport") or {}
        if not isinstance(transport_spec, dict):
            raise RegistryError("'transport' must be a JSON object")
        url = transport_spec.get("url", endpoint)
        bearer_env = transport_spec.get("bearerTokenEnv")
        provider: Callable[[], str] | None = None
        if bearer_env is not None:
            if not isinstance(bearer_env, str) or not bearer_env:
                raise RegistryError("'bearerTokenEnv' must be a non-empty string")
            provider = _env_token_provider(bearer_env)
        transport = HttpTransport(url, bearer_provider=provider)
        entries.append(
            RegistryEntry(
                endpoint=endpoint,
                bridge_id=bridge_id,
                required_clearance=required,
                allowed_tools=frozenset(allowed),
                transport=transport,
                skip_clearance_preflight=bool(item.get("skipClearancePreflight", False)),
            )
        )
    return entries


def _env_token_provider(name: str) -> Callable[[], str]:
    def provider() -> str:
        value = os.environ.get(name)
        if value is None:
            raise TransportError(f"bearer token environment variable {name!r} is not set")
        return value

    return provider
