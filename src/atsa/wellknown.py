"""Loopback HTTP stub: serves an attestation document at both well-known
paths and answers JSON-RPC tools/call requests from a behavior map.

The end-to-end tests and the demo script run ``StubServer(config).start()``,
which serves on a daemon thread; ``atsa serve`` runs ``serve_forever`` in the
foreground and closes on SIGINT. The served document bytes are exactly the
configured bytes, the same at both discovery paths, and per-route request
counters remain readable after ``server_close``.

Each connection is one thread that reads request after request, HTTP/1.1 kept
alive unless ``Connection: close``, HTTP/1.0 only with ``Connection:
keep-alive``. A head is read by the field rules ``exchange`` applies to a
reply, with ``_http._Reply``'s ``line`` and ``fields``: a line of at most
65,536 bytes ending in (CR)LF, at most 100 fields, no obs-fold and no line
without a name and colon. A refused request is answered with a JSON error and
``Connection: close``: 400 for a malformed request line or head, or for a
``Content-Length`` that is not one run of digits; 505 for a version other
than HTTP/1.0 and 1.1; 431 for a head over its limits; 501 for a
``Transfer-Encoding`` or a method other than GET and POST; 413, unread, for a
body over ``MAX_REQUEST_BYTES``. ``Expect: 100-continue`` is answered before
the body is read. Each reply is one ``sendall`` of the status line,
``Content-Type``, ``Content-Length``, ``Date`` and, when closing,
``Connection: close``, then the body.
"""

from __future__ import annotations

import functools
import json
import re
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ._http import WELL_KNOWN_PATHS, _Reply, _TooLarge
from ._json import read_json

if TYPE_CHECKING:
    from .sad import AttestationDocument

__all__ = ["StubServer", "StubServerConfig"]

# A tools/call request is a few hundred bytes; a larger declared body is refused unread.
MAX_REQUEST_BYTES = 1024 * 1024

# ``socket.SHUT_RDWR`` (2 on Linux, the BSDs, macOS and Windows). Shutting a
# connection down wakes a handler thread blocked on its next request line,
# where closing it would not. Only ``admission`` may import ``socket``.
_SHUT_RDWR = 2

# ``METHOD SP request-target SP HTTP-version`` (RFC 9112, section 3), each part visible ASCII.
_REQUEST_LINE = re.compile(rb"([!-~]+) ([!-~]+) HTTP/(\d\.\d)")

_REASONS = {
    200: b"OK",
    400: b"Bad Request",
    404: b"Not Found",
    413: b"Content Too Large",
    431: b"Request Header Fields Too Large",
    501: b"Not Implemented",
    505: b"HTTP Version Not Supported",
}
_DAYS = (b"Mon", b"Tue", b"Wed", b"Thu", b"Fri", b"Sat", b"Sun")
_MONTHS = (b"Jan", b"Feb", b"Mar", b"Apr", b"May", b"Jun", b"Jul", b"Aug", b"Sep", b"Oct", b"Nov", b"Dec")


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> bytes:
    """``second`` as an IMF-fixdate (RFC 9110, section 5.6.7), formatted once per second."""
    t = time.gmtime(second)
    return b"%s, %02d %s %d %02d:%02d:%02d GMT" % (
        _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec
    )


def _reply(status: int, body: bytes, keep: bool) -> bytes:
    """One whole reply: status line, head and body."""
    return b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nDate: %s\r\n%s\r\n%s" % (
        status, _REASONS[status], len(body), _http_date(int(time.time())), b"" if keep else b"Connection: close\r\n", body
    )


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
        from .sad import serialize_document
        return cls(
            sad_bytes=serialize_document(document).encode("utf-8"),
            tool_behaviors=dict(tool_behaviors or {}),
            **kwargs,
        )


class _Refused(Exception):
    """A request the stub answers with a status and an error, ``args``, and closes on."""


class _Requests(_Reply):
    """The requests on one connection. Each read waits at most the handler's idle timeout."""

    def __init__(self, sock) -> None:
        self.sock, self.buffer = sock, bytearray()

    def recv(self) -> bytes:
        return self.sock.recv(65536)

    def begun(self) -> bool:
        """Whether another request has begun: bytes are buffered, or arrive before EOF."""
        if not self.buffer:
            self.buffer += self.recv()
        return bool(self.buffer)


class _Handler(socketserver.StreamRequestHandler):
    # A pipelined request's reply, or the reply after ``100 Continue``, may follow an
    # unacknowledged write; Nagle's algorithm would hold it until the client's delayed ACK.
    disable_nagle_algorithm = True
    # Seconds a kept-alive connection may sit idle before the stub closes it.
    # Long, because a client never resends a pooled POST that a close races.
    timeout = 60

    def handle(self) -> None:
        requests = _Requests(self.connection)
        try:
            while requests.begun():
                status, body, keep = self._answer(requests)
                self.connection.sendall(_reply(status, body, keep))
                if not keep:
                    return
        except OSError:
            pass  # the client hung up, or sat idle for ``timeout`` seconds

    def _answer(self, requests: _Requests) -> tuple[int, bytes, bool]:
        """Read one request: the status and body to answer it with, and whether the connection stays open."""
        try:
            method, path, raw, keep = self._read(requests)
        except _Refused as refusal:
            status, reason = refusal.args
            return status, json.dumps({"error": reason}).encode("utf-8"), False
        except _TooLarge:
            return 431, b'{"error": "request head too large"}', False
        except ValueError:  # a malformed field line, a head or body cut short, an absurd Content-Length
            return 400, b'{"error": "malformed request"}', False
        config = self.server.config  # type: ignore[attr-defined]
        if method == b"GET":
            if path not in WELL_KNOWN_PATHS:
                return 404, b'{"error": "not found"}', keep
            if config.sad_bytes is None:
                return 404, b'{"error": "no attestation document"}', keep
            return 200, config.sad_bytes, keep
        if path != config.mcp_path:
            return 404, b'{"error": "not found"}', keep
        try:
            payload = read_json(raw, ValueError, "parse error")
        except ValueError:
            reply = _rpc_error(None, -32700, "parse error")
        else:
            reply = self._dispatch(config, payload)
        return 200, json.dumps(reply).encode("utf-8"), keep

    def _read(self, requests: _Requests) -> tuple[bytes, str, bytes, bool]:
        """One GET or POST: its method, path, body, and whether the connection stays open."""
        request = _REQUEST_LINE.fullmatch(requests.line())
        if request is None:
            raise _Refused(400, "malformed request line")
        method, target, version = request.groups()
        if version not in (b"1.1", b"1.0"):
            raise _Refused(505, "HTTP version not supported")
        fields = requests.fields()
        path = target.decode("ascii")
        if method not in (b"GET", b"POST"):
            raise _Refused(501, "method not implemented")
        self.server._count(method.decode("ascii"), path)  # type: ignore[attr-defined]
        sizes = {size.strip() for size in fields.get(b"content-length", b"0").split(b",")}
        if len(sizes) > 1 or not (size := sizes.pop()).isdigit():
            # The body's end is unknown, so the connection cannot be reused.
            raise _Refused(400, "Content-Length must be one non-negative integer")
        if b"transfer-encoding" in fields:
            raise _Refused(501, "transfer codings are not supported")
        if (length := int(size)) > MAX_REQUEST_BYTES:
            raise _Refused(413, "request body too large")
        if length and version == b"1.1" and fields.get(b"expect", b"").lower() == b"100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = requests.take(length, "Content-Length")
        connection = fields.get(b"connection", b"").lower()
        return method, path, raw, b"close" not in connection if version == b"1.1" else b"keep-alive" in connection

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


class StubServer(socketserver.ThreadingTCPServer):
    """The stub, bound when built: a taken port raises OSError."""

    allow_reuse_address = True
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
        """Requests served, keyed ``"METHOD path"`` for the two well-known paths
        and the MCP path, and ``"METHOD (other)"`` for any other path, so a
        client cannot grow them past eight keys."""
        with self._lock:
            return dict(self._counts)

    def tools_call_count(self) -> int:
        return self.counters.get(f"POST {self.config.mcp_path}", 0)

    def _count(self, method: str, path: str) -> None:
        if path not in WELL_KNOWN_PATHS and path != self.config.mcp_path:
            path = "(other)"
        key = f"{method} {path}"
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
