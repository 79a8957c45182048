"""Test doubles for the injectable seams: a fetcher serving a fixed mapping,
an in-process tool transport, an in-memory audit sink, and a loopback peer
that answers with raw bytes. Tests import them like ``reference_impl``."""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Mapping

from atsa import AuditRecord


class StaticFetcher:
    """Test fetcher serving a fixed URL-to-bytes mapping; everything else 404s.
    Requested URLs are recorded so tests can assert fetch counts."""

    def __init__(self, responses: Mapping[str, bytes]) -> None:
        self.responses = dict(responses)
        self.requests: list[str] = []

    def __call__(self, url: str) -> tuple[int, bytes]:
        self.requests.append(url)
        body = self.responses.get(url)
        if body is None:
            return 404, b""
        return 200, body


class CountingTransport:
    """In-process transport that never touches the network. Counts every
    request and answers tools/call from a behavior map (callable or constant
    result); unmapped tools are echoed back."""

    def __init__(self, behaviors: Mapping[str, Any] | None = None) -> None:
        self.behaviors = dict(behaviors or {})
        self.calls = 0
        self.requests: list[tuple[Mapping[str, Any], Mapping[str, str]]] = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def request(self, payload: Mapping[str, Any], headers: Mapping[str, str]) -> Any:
        self.calls += 1
        self.requests.append((dict(payload), dict(headers)))
        if payload.get("method") != "tools/call":
            return {
                "jsonrpc": "2.0",
                "id": payload.get("id"),
                "error": {"code": -32601, "message": "method not found"},
            }
        params = payload.get("params") or {}
        name = params.get("name")
        arguments = params.get("arguments") or {}
        behavior = self.behaviors.get(name)
        if callable(behavior):
            result = behavior(arguments)
        elif behavior is not None:
            result = behavior
        else:
            result = {"tool": name, "echo": dict(arguments)}
        return {"jsonrpc": "2.0", "id": payload.get("id"), "result": result}


class RecordingSink:
    """In-memory audit sink."""

    def __init__(self) -> None:
        self.records: list[AuditRecord] = []

    def write(self, record: AuditRecord) -> None:
        self.records.append(record)


class RawPeer:
    """Loopback TCP peer that reads each request and answers it with ``reply``
    verbatim, so tests can send replies no HTTP server library would: garbage
    status lines, short bodies, bad redirects. ``reply`` is bytes or a
    function of the request's raw bytes, and may be reassigned between
    requests. The peer closes the connection after one reply; with
    ``keep_alive`` it reads the next request on the same connection instead,
    until it sends an empty reply. With ``trickle``, each byte of a reply goes
    out that many seconds after the one before. The raw bytes of every request
    received, head and body, are kept in ``requests``, and ``hung_up`` is
    released each time the peer has closed a connection. It listens on
    ``host``, which may be an IPv6 literal such as ``::1``; binding it raises
    OSError where it cannot."""

    def __init__(
        self,
        reply: bytes | Callable[[bytes], bytes] = b"",
        *,
        keep_alive: bool = False,
        host: str = "127.0.0.1",
        trickle: float = 0.0,
    ) -> None:
        self.reply = reply
        self.requests: list[bytes] = []
        self.hung_up = threading.Semaphore(0)
        peer = self

        class Handler(socketserver.StreamRequestHandler):
            timeout = 5

            def handle(self) -> None:
                while True:
                    request = self._read_request()
                    if not request:
                        return
                    peer.requests.append(request)
                    reply = peer.reply(request) if callable(peer.reply) else peer.reply
                    if trickle:
                        for byte in reply:
                            time.sleep(trickle)
                            self.wfile.write(bytes([byte]))
                    else:
                        self.wfile.write(reply)
                    if not (keep_alive and reply):
                        return

            def _read_request(self) -> bytes:
                length = 0
                head = []
                for line in iter(self.rfile.readline, b""):
                    head.append(line)
                    if line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                return b"".join(head) + self.rfile.read(length)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            address_family = socket.AF_INET6 if ":" in host else socket.AF_INET

            def handle_error(self, request, client_address) -> None:
                pass  # the client hung up first; nothing to report

            def shutdown_request(self, request) -> None:
                super().shutdown_request(request)
                peer.hung_up.release()

        self._server = Server((host, 0), Handler)
        authority = f"[{host}]" if ":" in host else host
        self.url = f"http://{authority}:{self._server.server_address[1]}"
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()

    def __enter__(self) -> "RawPeer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
