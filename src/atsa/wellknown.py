"""Loopback HTTP stub: serves an attestation document at both well-known
paths and answers JSON-RPC tools/call requests from a behavior map.

The end-to-end tests and the demo script run ``StubServer(config).start()``,
which serves on a daemon thread; ``atsa serve`` runs ``serve_forever`` in the
foreground and closes on SIGINT. The served document bytes are exactly the
configured bytes, the same at both discovery paths, and per-route request
counters remain readable after ``server_close``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from ._json import read_json
from .admission import WELL_KNOWN_PATHS
from .sad import AttestationDocument, serialize_document

__all__ = ["StubServer", "StubServerConfig"]

# A tools/call request is a few hundred bytes; a larger declared body is refused unread.
MAX_REQUEST_BYTES = 1024 * 1024

# ``socket.SHUT_RDWR`` (2 on Linux, the BSDs, macOS and Windows). Shutting a
# connection down wakes a handler thread blocked on its next request line,
# where closing it would not. Only ``admission`` may import network modules.
_SHUT_RDWR = 2


@dataclass
class StubServerConfig:
    """What the stub serves. ``sad_bytes`` of None means the server is
    unattested and 404s both well-known paths. Behavior values are either a
    constant JSON result or a callable taking the tools/call arguments."""

    sad_bytes: bytes | None = None
    tool_behaviors: Mapping[str, Any] = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 0
    mcp_path: str = "/mcp"

    @classmethod
    def for_document(
        cls, document: AttestationDocument, tool_behaviors: Mapping[str, Any] | None = None, **kwargs: Any
    ) -> "StubServerConfig":
        return cls(
            sad_bytes=serialize_document(document).encode("utf-8"),
            tool_behaviors=dict(tool_behaviors or {}),
            **kwargs,
        )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; on a kept-alive connection,
    # Nagle's algorithm would hold the body back until the client's delayed ACK.
    disable_nagle_algorithm = True
    # Seconds a kept-alive connection may sit idle before the stub closes it.
    # Long, because a client never resends a pooled POST that a close races.
    timeout = 60

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        server: StubServer = self.server  # type: ignore[assignment]
        server._count(f"GET {self.path}")
        config = server.config
        if self.path in WELL_KNOWN_PATHS:
            if config.sad_bytes is None:
                self._send(404, b'{"error": "no attestation document"}')
            else:
                self._send(200, config.sad_bytes)
            return
        self._send(404, b'{"error": "not found"}')

    def do_POST(self) -> None:
        server: StubServer = self.server  # type: ignore[assignment]
        server._count(f"POST {self.path}")
        config = server.config
        if self.path != config.mcp_path:
            self._send(404, b'{"error": "not found"}')
            return
        length = self.headers.get("Content-Length") or "0"
        if not (length.isascii() and length.isdigit()):
            # The body's end is unknown, so the connection cannot be reused.
            self.close_connection = True
            self._send(400, b'{"error": "Content-Length must be a non-negative integer"}')
            return
        if int(length) > MAX_REQUEST_BYTES:
            self.close_connection = True
            self._send(413, b'{"error": "request body too large"}')
            return
        raw = self.rfile.read(int(length))
        try:
            payload = read_json(raw, ValueError, "parse error")
        except ValueError:
            reply = _rpc_error(None, -32700, "parse error")
        else:
            reply = self._dispatch(config, payload)
        self._send(200, json.dumps(reply).encode("utf-8"))

    @staticmethod
    def _dispatch(config: StubServerConfig, payload: Any) -> dict[str, Any]:
        request_id = payload.get("id") if isinstance(payload, dict) else None
        if not isinstance(payload, dict) or payload.get("method") != "tools/call":
            return _rpc_error(request_id, -32601, "method not found")
        params = payload.get("params", {})
        if not (
            isinstance(params, dict)
            and isinstance(params.get("name"), str)
            and isinstance(params.get("arguments", {}), dict)
        ):
            return _rpc_error(request_id, -32602, "invalid params")
        name = params["name"]
        behavior = config.tool_behaviors.get(name)
        if behavior is None:
            return _rpc_error(request_id, -32602, f"unknown tool: {name!r}")
        arguments = params.get("arguments", {})
        result = behavior(arguments) if callable(behavior) else behavior
        return {"jsonrpc": "2.0", "id": request_id, "result": result}


def _rpc_error(request_id: Any, code: int, message: str) -> dict[str, Any]:
    return {"jsonrpc": "2.0", "id": request_id, "error": {"code": code, "message": message}}


class StubServer(ThreadingHTTPServer):
    """The stub, bound when built: a taken port raises OSError."""

    daemon_threads = True

    def __init__(self, config: StubServerConfig) -> None:
        # Set before binding: a failed bind calls server_close.
        self.config = config
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._live: set[Any] = set()  # accepted connections not yet shut down, under _lock
        self._thread: threading.Thread | None = None
        super().__init__((config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def counters(self) -> dict[str, int]:
        """Requests served, keyed ``"METHOD path"``."""
        with self._lock:
            return dict(self._counts)

    def tools_call_count(self) -> int:
        return self.counters.get(f"POST {self.config.mcp_path}", 0)

    def _count(self, key: str) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1

    def start(self) -> "StubServer":
        """Serve on a daemon thread until ``shutdown``."""
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the thread ``start`` began, if any, then ``server_close``. Idempotent."""
        thread, self._thread = self._thread, None
        if thread is not None:  # BaseServer.shutdown waits for a serve_forever that never ran
            super().shutdown()
            thread.join()
        self.server_close()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end every live connection, idle or not."""
        super().server_close()
        with self._lock:
            live = list(self._live)
        for request in live:
            try:
                request.shutdown(_SHUT_RDWR)
            except OSError:
                pass  # the client hung up first
