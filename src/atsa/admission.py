"""Connection-time admission: fetch, verify, and gate MCP server attestations.

``verify_server_clearance(server_url, required_level, *, now, scheme,
trust_root, fetcher)`` is the one verification entry point. It applies a
fixed sequence of checks and reports the first failure as a denial value; it
never raises for untrusted input.
The order is observable and load-bearing, because a hostile document can fail
several checks at once and callers key behavior off the reason:

1. fetch the well-known document          -> fetch_failed
2. parse and validate structure           -> manifest_invalid
3. capabilities include "mcp-server"      -> not_mcp_server
4. signerKeyId and signature present      -> unsigned
5. signer found in the trust root         -> signer_not_trusted
6. signer validity window open            -> signer_expired
7. asserted clearance in signer approval  -> signer_not_approved
8. Ed25519 signature over canonical body  -> bad_signature
9. clearance dominates the requirement    -> below_required
10. serving host bound, when hosts listed -> host_not_bound

Checks 3-10 run on every call, against that call's clock, trust root,
required level and URL. One memo, ``_parsed`` (a ``functools.lru_cache``), holds
what depends only on the bytes: for the ``DOCUMENT_CACHE_SIZE`` most recent
documents of at most ``MEMO_MAX_BODY_BYTES``, keyed by the fetched bytes
themselves, their ``DocumentError`` text, or their ``AttestationDocument`` and
its check 8 result per public key, which is fixed because its signature and
canonical body are. Any changed byte is a new entry. The cached document never
leaves ``verify_server_clearance``: a ``Verdict`` holds only strings. Outside
the memo, each clause costs about a lookup: ``split_url`` keeps the split of
its 128 most recent URLs, and a ``SignerRecord`` keeps the ranks of its
approved names in the last scheme it was asked about.

``AdmissionGate.connect`` returns the verdict and writes exactly one audit
record per decision. The flavor picks only the record of a failure:
``mcp.connect.deny`` when enclaved, ``mcp.connect.warn`` when open. A call may
go ahead only on ``Verdict.allowed``, in either flavor. An audit append failure
aborts the connection.

``exchange`` is the one place a peer is contacted. It opens the socket itself and
speaks HTTP/1.1 on one connection per origin per thread, so an allowed dispatch's
GET and POST share it.
"""

from __future__ import annotations

import atexit
import functools
import os
import re
import select
import socket
import threading
import time
import urllib.parse
from datetime import datetime
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from ._http import WELL_KNOWN_PATHS, _left, _Reply
from .audit import (
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    AuditLog,
    bounded,
)
from .lattice import ClassificationScheme, LevelNotFoundError
from .sad import MCP_SERVER_CAPABILITY, AttestationDocument, DocumentError, parse_document, verify_signature
from .trustroot import TrustRoot

__all__ = [
    "MAX_DOCUMENT_BYTES",
    "WELL_KNOWN_PATHS",
    "AdmissionGate",
    "DenyReason",
    "FetchError",
    "Fetcher",
    "Flavor",
    "HttpFetcher",
    "Verdict",
    "fetch_attestation",
    "serving",
    "verify_server_clearance",
]

# A fetcher returns (status, body) for one URL and raises FetchError on
# transport failure. Injectable so verification is hermetically testable.
Fetcher = Callable[[str], tuple[int, bytes]]


def serving(body: bytes) -> Fetcher:
    """A fetcher that answers every URL with ``body``. Verification asks for
    the first well-known path first, so it never sees a 404."""
    return lambda url: (200, body)


class DenyReason(str, Enum):
    fetch_failed = "fetch_failed"
    manifest_invalid = "manifest_invalid"
    not_mcp_server = "not_mcp_server"
    unsigned = "unsigned"
    signer_not_trusted = "signer_not_trusted"
    signer_expired = "signer_expired"
    signer_not_approved = "signer_not_approved"
    bad_signature = "bad_signature"
    below_required = "below_required"
    host_not_bound = "host_not_bound"
    tool_not_admitted = "tool_not_admitted"
    no_registered_bridge = "no_registered_bridge"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Flavor(str, Enum):
    """Deployment posture: enclaved enforces, open only warns."""

    open = "open"
    enclaved = "enclaved"


class Verdict(NamedTuple):
    """Outcome of verification. Denials are values, not exceptions."""

    allowed: bool
    clearance: str | None = None
    signer_key_id: str | None = None
    reason: DenyReason | None = None
    detail: str = ""

    @classmethod
    def allow(cls, clearance: str, signer_key_id: str | None) -> "Verdict":
        return cls(True, clearance, signer_key_id)

    @classmethod
    def deny(cls, reason: DenyReason, detail: str = "") -> "Verdict":
        return cls(False, None, None, reason, detail)


class FetchError(Exception):
    """Well-known document could not be retrieved."""


# The only schemes a peer is contacted on, each with its default port.
_DEFAULT_PORTS = {"http": 80, "https": 443}


@functools.lru_cache
def split_url(url: str) -> tuple[urllib.parse.SplitResult, str]:
    """The one URL reader: ``url`` split, and its lowercased host. A ValueError unless ``url``
    is absolute http(s) with a host and no userinfo (RFC 9110, section 4.2.4). Kept for the
    128 most recent URLs, as a gated call reads its server URL up to four times."""
    try:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme in _DEFAULT_PORTS and "@" not in parts.netloc and (host := parts.hostname):
            return parts, host
    except ValueError:  # an unbalanced "["
        pass
    raise ValueError("not an absolute http(s) URL")


# An authority's userinfo, or what may be meant as one: all before an "@" that no
# "/", "?" or "#" precedes, past any "scheme://" (RFC 3986, section 3.2.1).
_USERINFO = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*://)?[^/?#]*@")


def redacted(url: str) -> str:
    """``url`` for a message or the audit log: any userinfo, which may hold a password, is ``***``."""
    return _USERINFO.sub(r"\1***@", url, count=1)


def origin_of(parts: urllib.parse.SplitResult, host: str) -> tuple[str, str, int]:
    """``(scheme, host, port)`` of a URL ``split_url`` read, 80 or 443 filled in; a bad port is a ValueError."""
    port = parts.port
    return parts.scheme, host, _DEFAULT_PORTS[parts.scheme] if port is None else port


# A real document is a few hundred bytes; a larger body is refused unread.
MAX_DOCUMENT_BYTES = 64 * 1024

# Seconds one exchange may take, from its connect to the last byte of its reply.
PEER_TIMEOUT_S = 10.0

# Idle connections one thread keeps, one per origin; the least recently used is closed.
MAX_IDLE_ORIGINS = 8

@functools.lru_cache
def _tls_context(cert_file: str | None, cert_dir: str | None):
    """One client context per CA store, as loading a CA bundle takes tens of ms. Keyed on
    ``SSL_CERT_FILE`` and ``SSL_CERT_DIR``, which OpenSSL reads as it builds one."""
    import ssl  # here, on the first https connection: a process that makes none never loads it
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])  # the one protocol exchange speaks
    return context


def _connect(scheme: str, host: str, port: int, deadline: float) -> socket.socket:
    """A fresh connection to an origin: TCP with no Nagle delay and, for https, TLS with
    ``host`` as SNI and its certificate checked. The connect and the handshake each wait
    at most until ``deadline``; a failed handshake closes the socket."""
    https = scheme == "https"
    context = _tls_context(os.environ.get("SSL_CERT_FILE"), os.environ.get("SSL_CERT_DIR")) if https else None
    sock = socket.create_connection((host, port), _left(deadline))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if context is None:
        return sock
    try:
        sock.settimeout(_left(deadline))
    except TimeoutError:
        sock.close()
        raise
    return context.wrap_socket(sock, server_hostname=host)


class _Idle(dict):
    """One thread's idle sockets by origin, closed when the thread ends."""

    def close(self) -> None:
        while self:
            self.popitem()[1].close()

    __del__ = close


class _PerThread(threading.local):
    def __init__(self) -> None:
        self.idle = _Idle()


_THREAD = _PerThread()
atexit.register(lambda: _THREAD.idle.close())  # finalizers at exit run in no set order


def exchange(
    url: str, headers: Mapping[str, str], *, limit: int, data: bytes | None = None
) -> tuple[int, bytes]:
    """GET ``url``, or POST ``data`` to it, with no proxy and no redirect (RFC 8461 section
    3.3); a non-2xx or 204 reply comes back as ``(status, b"")``, unread. ``_connect`` opens
    the socket (TCP, TLS, SNI, certificate check); the reply is hostile input, read here by
    RFC 9112 section 6.3. Each break of these rules is a ``FetchError``:

    - the status line is ``HTTP/1.1`` or ``HTTP/1.0``, a space and 3 digits; 1xx is refused;
    - a line ends in (CR)LF and holds at most 65,536 bytes, a head at most 100 fields;
      obs-fold and a line without a name and colon are refused;
    - chunked wins over ``Content-Length`` and that connection is not pooled; a chunk size
      is hex digits and a chunk ends in CRLF; another ``Transfer-Encoding`` is refused,
      as are ``Content-Length`` values that differ or are not digits; with neither, the
      body is read to close and the connection is not pooled;
    - a declared body over ``limit`` is refused unread; EOF cuts short a head, a chunked
      body or a ``Content-Length`` body.

    Per thread and origin, a connection is pooled after a whole 2xx reply not marked
    ``Connection: close`` with nothing after it, and replaced if it reads ready. A POST,
    which may have run its tool, is never resent; a GET is, once and fresh, if a reused one
    closed before replying.

    The whole call, that resent GET included, has ``PEER_TIMEOUT_S`` from its start: the
    connect, the TLS handshake, the request write and each read of the reply wait only for
    what is left, and a spent budget is a ``FetchError``. Name lookup (``getaddrinfo``) is
    not covered, and a host with several addresses gives each connect attempt what is left."""
    method = "GET" if data is None else "POST"
    deadline = time.monotonic() + PEER_TIMEOUT_S
    try:
        parts, host = split_url(url)
        origin = origin_of(parts, host)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        length = {} if data is None else {"Content-Length": str(len(data))}
        fields = {"Host": parts.netloc, "Accept-Encoding": "identity", **headers, **length}
        head = [f"{method} {target} HTTP/1.1", *(f"{name}: {value}" for name, value in fields.items())]
        if " " in parts.netloc + target or not (text := "".join(head)).isascii() or not text.isprintable():
            raise ValueError("the request holds a control or non-ASCII character, or a space in its host or target")
        request = "\r\n".join([*head, "", ""]).encode("ascii") + (data or b"")
        pooled = (idle := _THREAD.idle).pop(origin, None)
        if pooled is not None:
            ready = select.poll()  # unlike select.select, takes an fd above 1023
            ready.register(pooled, select.POLLIN)
            if ready.poll(0):
                pooled.close()  # the peer hung up while the connection sat idle
                pooled = None
        while True:
            sock = pooled or _connect(*origin, deadline)
            keep, stale = False, ConnectionError  # until a reply begins, nothing was read
            try:
                sock.settimeout(_left(deadline))
                sock.sendall(request)
                if not (reply := _Reply(sock, deadline)).buffer:
                    raise ConnectionResetError("the peer closed the connection without replying")
                stale = ()
                status, body, keep = reply.read(limit)
                break
            except stale:
                if pooled is None or data is not None:
                    raise
                pooled = None
            finally:
                if keep:
                    idle[origin] = sock
                    if len(idle) > MAX_IDLE_ORIGINS:
                        idle.pop(next(iter(idle))).close()
                else:
                    sock.close()
    except (OSError, ValueError) as exc:  # a failed connect, handshake or read; a bad URL, request or reply
        raise FetchError(f"{method} {redacted(url)} failed: {exc}") from exc
    return status, body


class HttpFetcher:
    """Production fetcher: an ``exchange`` GET capped at ``MAX_DOCUMENT_BYTES``."""

    def __call__(self, url: str) -> tuple[int, bytes]:
        return exchange(url, {"Accept": "application/json"}, limit=MAX_DOCUMENT_BYTES)


def fetch_attestation(server_url: str, fetcher: Fetcher) -> bytes:
    """Retrieve the attestation document for a server URL.

    Well-known paths are origin-rooted: the first path is tried, and the
    second only when the first returns 404. Any transport failure or
    non-200/404 status raises FetchError.
    """
    try:
        parts = split_url(server_url)[0]
    except ValueError:
        raise FetchError(f"server URL must be absolute http(s): {redacted(server_url)!r}") from None
    base = f"{parts.scheme}://{parts.netloc}"
    for path in WELL_KNOWN_PATHS:
        status, body = fetcher(base + path)
        if status == 200:
            return body
        if status != 404:
            raise FetchError(f"GET {base + path} returned status {status}")
    raise FetchError(f"no attestation document at well-known paths under {base}")


# By the fetched bytes, least recently used first: the DocumentError text, or the
# document and its signature result per trust-root key (racing threads store the
# same result). Bodies over MEMO_MAX_BODY_BYTES go to ``_parsed.__wrapped__`` and
# are never kept: a peer serving ever new bytes pins at most 256 small ones.
DOCUMENT_CACHE_SIZE = 256
MEMO_MAX_BODY_BYTES = 4 * 1024


@functools.lru_cache(maxsize=DOCUMENT_CACHE_SIZE)
def _parsed(raw: bytes) -> tuple[AttestationDocument, dict[bytes, bool]] | str:
    """``parse_document(raw)`` and its signature results, or its DocumentError text."""
    try:
        return parse_document(raw), {}
    except DocumentError as exc:
        return str(exc)


def verify_server_clearance(
    server_url: str, required_level: str, *, now: datetime, scheme: ClassificationScheme,
    trust_root: TrustRoot, fetcher: Fetcher,
) -> Verdict:
    """Run the ordered checks described in the module docstring.

    The required level must resolve in the scheme; that is host
    configuration, so an unresolvable name raises LevelNotFoundError instead
    of producing a denial.
    """
    if scheme.resolve(required_level) is None:
        raise LevelNotFoundError(f"required level {required_level!r} not in scheme {scheme.name!r}")

    try:
        raw = fetch_attestation(server_url, fetcher)
    except FetchError as exc:
        return Verdict.deny(DenyReason.fetch_failed, str(exc))

    outcome = (_parsed if len(raw) <= MEMO_MAX_BODY_BYTES else _parsed.__wrapped__)(raw)
    if isinstance(outcome, str):
        return Verdict.deny(DenyReason.manifest_invalid, outcome)
    document, verified = outcome

    if MCP_SERVER_CAPABILITY not in document.capabilities:
        return Verdict.deny(
            DenyReason.not_mcp_server,
            f"capabilities {list(document.capabilities)!r} lack {MCP_SERVER_CAPABILITY!r}",
        )

    if document.signer_key_id is None or document.signature is None:
        return Verdict.deny(DenyReason.unsigned, "document carries no signer key id and signature")

    signer = trust_root.find(document.signer_key_id)
    if signer is None:
        return Verdict.deny(
            DenyReason.signer_not_trusted,
            f"signer {document.signer_key_id!r} not in trust root",
        )

    if signer.not_after is not None and signer.not_after < now:
        return Verdict.deny(
            DenyReason.signer_expired,
            f"signer {signer.key_id!r} expired at {signer.not_after.isoformat()}",
        )

    if not signer.approves(scheme, document.clearance):
        return Verdict.deny(
            DenyReason.signer_not_approved,
            f"signer {signer.key_id!r} is not approved to assert {document.clearance!r}",
        )

    if (valid := verified.get(signer.public_key)) is None:
        valid = verified[signer.public_key] = verify_signature(document, signer.public_key)
    if not valid:
        return Verdict.deny(
            DenyReason.bad_signature, "signature does not verify over the canonical body"
        )

    if not scheme.meets(document.clearance, required_level):
        return Verdict.deny(
            DenyReason.below_required,
            f"clearance {document.clearance!r} is below required {required_level!r}",
        )

    hosts = document.net_allowed_hosts or ()
    if hosts:
        origin = split_url(server_url)[1]
        if origin not in {candidate.casefold() for candidate in hosts}:
            return Verdict.deny(
                DenyReason.host_not_bound,
                f"host {origin!r} not in netAllowedHosts {list(hosts)!r}",
            )

    return Verdict.allow(document.clearance, signer.key_id)


class AdmissionGate:
    """Binds a scheme, trust root, fetcher, and audit log into the
    connection-time gate. One audit record per decision, written before the
    result is returned; if the append fails the connection attempt fails.
    Each decision reads the audit log's clock once: its checks run at that
    instant, and its record is stamped with it."""

    def __init__(
        self, scheme: ClassificationScheme, trust_root: TrustRoot, fetcher: Fetcher, audit: AuditLog
    ) -> None:
        self.scheme = scheme
        self.trust_root = trust_root
        self.fetcher = fetcher
        self.audit = audit

    def connect(
        self, server_url: str, required_level: str, flavor: Flavor, *, skip_clearance_preflight: bool = False
    ) -> Verdict:
        if skip_clearance_preflight:
            # Explicit per-server opt-out: no fetch, but the allow is still
            # recorded so no admitted connection is unlogged.
            skipped = {"level": required_level, "signerKeyId": None, "preflight": "skipped"}
            self.audit.append(EVENT_CONNECT_ALLOW, skipped)
            return Verdict.allow(required_level, None)

        now = self.audit.clock()
        verdict = verify_server_clearance(
            server_url, required_level, now=now, scheme=self.scheme,
            trust_root=self.trust_root, fetcher=self.fetcher,
        )
        if verdict.allowed:
            allowed = {"level": verdict.clearance, "signerKeyId": verdict.signer_key_id}
            self.audit.append(EVENT_CONNECT_ALLOW, allowed, at=now)
        else:
            # The flavor picks only the record: an open gate warns, but never rewrites a failure
            # into a success. The detail may echo the peer's document, so it is held bounded.
            event = EVENT_CONNECT_DENY if flavor is Flavor.enclaved else EVENT_CONNECT_WARN
            denial = {"reason": verdict.reason.value, "detail": bounded(verdict.detail)}
            self.audit.append(event, denial, at=now)
        return verdict
