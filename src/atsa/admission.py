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

``AdmissionGate.connect`` wraps the verdict with flavor semantics (enclaved
denies, open warns but never silently allows) and writes exactly one audit
record per decision. An audit append failure aborts the connection.
"""

from __future__ import annotations

import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Callable

from .audit import (
    EVENT_CONNECT_ALLOW,
    EVENT_CONNECT_DENY,
    EVENT_CONNECT_WARN,
    AuditLog,
    _utcnow,
)
from .lattice import ClassificationScheme, LevelNotFoundError
from .sad import MCP_SERVER_CAPABILITY, DocumentError, parse_document, verify_signature
from .trustroot import TrustRoot

__all__ = [
    "MAX_DOCUMENT_BYTES",
    "OPEN_FLAVOR_NOTE",
    "WELL_KNOWN_PATHS",
    "AdmissionGate",
    "ConnectResult",
    "ConnectStatus",
    "DenyReason",
    "FetchError",
    "Fetcher",
    "Flavor",
    "HttpFetcher",
    "Verdict",
    "fetch_attestation",
    "host_of",
    "serving",
    "verify_server_clearance",
]

# Discovery order: the generic path first, the legacy path on 404.
WELL_KNOWN_PATHS = (
    "/.well-known/mcp-attestation",
    "/.well-known/enclawed-clearance.json",
)

OPEN_FLAVOR_NOTE = "open flavor: warn-only"

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


class ConnectStatus(str, Enum):
    ok = "ok"
    denied = "denied"
    warn = "warn"


@dataclass(frozen=True)
class Verdict:
    """Outcome of verification. Denials are values, not exceptions."""

    allowed: bool
    clearance: str | None = None
    signer_key_id: str | None = None
    reason: DenyReason | None = None
    detail: str = ""

    @classmethod
    def allow(cls, clearance: str, signer_key_id: str | None) -> "Verdict":
        return cls(allowed=True, clearance=clearance, signer_key_id=signer_key_id)

    @classmethod
    def deny(cls, reason: DenyReason, detail: str = "") -> "Verdict":
        return cls(allowed=False, reason=reason, detail=detail)


@dataclass(frozen=True)
class ConnectResult:
    status: ConnectStatus
    verdict: Verdict
    flavor_note: str | None = None


class FetchError(Exception):
    """Well-known document could not be retrieved."""


def host_of(url: str) -> str:
    """Lowercased host component of ``url``: no scheme, port, or path."""
    host = urllib.parse.urlsplit(url).hostname
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    return host


class SameOriginRedirects(urllib.request.HTTPRedirectHandler):
    """Follow redirects only within the original origin; refuse the rest by
    raising ``error``, so nothing sent with the request, such as a bearer
    token, reaches another origin."""

    def __init__(self, error: type[Exception]) -> None:
        self.error = error

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        original = urllib.parse.urlsplit(req.full_url)
        target = urllib.parse.urlsplit(urllib.parse.urljoin(req.full_url, newurl))
        if (target.scheme, target.hostname, target.port) != (
            original.scheme,
            original.hostname,
            original.port,
        ):
            raise self.error(f"cross-origin redirect refused: {req.full_url} -> {newurl}")
        return super().redirect_request(req, fp, code, msg, headers, newurl)


# A real document is a few hundred bytes; a larger body is refused unread.
MAX_DOCUMENT_BYTES = 64 * 1024


class HttpFetcher:
    """Production fetcher: GET with a timeout, same-origin redirects only,
    bodies of at most ``MAX_DOCUMENT_BYTES``."""

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._opener = urllib.request.build_opener(SameOriginRedirects(FetchError))

    def __call__(self, url: str) -> tuple[int, bytes]:
        request = urllib.request.Request(url, headers={"Accept": "application/json"})
        try:
            with self._opener.open(request, timeout=self.timeout) as response:
                body = response.read(MAX_DOCUMENT_BYTES + 1)
                if len(body) > MAX_DOCUMENT_BYTES:
                    raise FetchError(f"GET {url} returned more than {MAX_DOCUMENT_BYTES} bytes")
                return response.status, body
        except urllib.error.HTTPError as error:
            body = error.read(MAX_DOCUMENT_BYTES) if error.fp is not None else b""
            return error.code, body
        except FetchError:
            raise
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise FetchError(f"GET {url} failed: {exc}") from exc


def fetch_attestation(server_url: str, fetcher: Fetcher) -> bytes:
    """Retrieve the attestation document for a server URL.

    Well-known paths are origin-rooted: the first path is tried, and the
    second only when the first returns 404. Any transport failure or
    non-200/404 status raises FetchError.
    """
    parts = urllib.parse.urlsplit(server_url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise FetchError(f"server URL must be absolute http(s): {server_url!r}")
    base = f"{parts.scheme}://{parts.netloc}"
    for path in WELL_KNOWN_PATHS:
        status, body = fetcher(base + path)
        if status == 200:
            return body
        if status != 404:
            raise FetchError(f"GET {base + path} returned status {status}")
    raise FetchError(f"no attestation document at well-known paths under {base}")


def verify_server_clearance(
    server_url: str,
    required_level: str,
    *,
    now: datetime,
    scheme: ClassificationScheme,
    trust_root: TrustRoot,
    fetcher: Fetcher,
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

    try:
        document = parse_document(raw)
    except DocumentError as exc:
        return Verdict.deny(DenyReason.manifest_invalid, str(exc))

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

    if not verify_signature(document, signer.public_key):
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
        origin = host_of(server_url)
        if origin not in {candidate.casefold() for candidate in hosts}:
            return Verdict.deny(
                DenyReason.host_not_bound,
                f"host {origin!r} not in netAllowedHosts {list(hosts)!r}",
            )

    return Verdict.allow(document.clearance, signer.key_id)


class AdmissionGate:
    """Binds a scheme, trust root, fetcher, and audit log into the
    connection-time gate. One audit record per decision, written before the
    result is returned; if the append fails the connection attempt fails."""

    def __init__(
        self,
        scheme: ClassificationScheme,
        trust_root: TrustRoot,
        fetcher: Fetcher,
        audit: AuditLog,
        clock: Callable[[], datetime] = _utcnow,
    ) -> None:
        self.scheme = scheme
        self.trust_root = trust_root
        self.fetcher = fetcher
        self.audit = audit
        self.clock = clock

    def connect(
        self,
        server_url: str,
        required_level: str,
        flavor: Flavor = Flavor.open,
        *,
        skip_clearance_preflight: bool = False,
    ) -> ConnectResult:
        if skip_clearance_preflight:
            # Explicit per-server opt-out: no fetch, but the allow is still
            # recorded so no admitted connection is unlogged.
            self.audit.append(
                EVENT_CONNECT_ALLOW,
                {"level": required_level, "signerKeyId": None, "preflight": "skipped"},
            )
            return ConnectResult(
                ConnectStatus.ok, Verdict.allow(required_level, None)
            )

        verdict = verify_server_clearance(
            server_url,
            required_level,
            now=self.clock(),
            scheme=self.scheme,
            trust_root=self.trust_root,
            fetcher=self.fetcher,
        )

        if verdict.allowed:
            self.audit.append(
                EVENT_CONNECT_ALLOW,
                {"level": verdict.clearance, "signerKeyId": verdict.signer_key_id},
            )
            return ConnectResult(ConnectStatus.ok, verdict)

        reason = verdict.reason.value if verdict.reason else "unknown"
        if flavor is Flavor.enclaved:
            self.audit.append(
                EVENT_CONNECT_DENY, {"reason": reason, "detail": verdict.detail}
            )
            return ConnectResult(ConnectStatus.denied, verdict)

        # Open flavor: surface the failure, never rewrite it into a success.
        self.audit.append(EVENT_CONNECT_WARN, {"reason": reason, "detail": verdict.detail})
        return ConnectResult(ConnectStatus.warn, verdict, flavor_note=OPEN_FLAVOR_NOTE)
