"""Signer registry with a one-way lock.

The trust root maps signer key ids to Ed25519 public keys, an explicit list
of clearance names each signer may vouch for, and an optional validity
deadline. Once locked, the root can never be replaced again in-process; this
is the mechanism that stops runtime trust widening.
"""

from __future__ import annotations

import base64
import binascii
import re
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable

from ._json import read_json

if TYPE_CHECKING:  # named in annotations only, so ``audit``, which imports this module, loads no lattice
    from .lattice import ClassificationScheme

__all__ = [
    "SignerRecord",
    "TrustRoot",
    "TrustRootError",
    "TrustRootLockedError",
    "format_rfc3339",
    "load_trust_root_file",
    "parse_rfc3339",
    "trust_root_to_wire",
]


class TrustRootError(ValueError):
    """A trust root file or record is malformed."""


class TrustRootLockedError(RuntimeError):
    """Attempt to replace a locked trust root."""


# RFC 3339 section 5.6 date-time, its offset optional: a value without one is
# read as UTC. The field ranges are left to fromisoformat.
_DATE_TIME = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?([Zz]|[+-][0-9]{2}:[0-9]{2})?")


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp. Naive values are taken as UTC.

    Only the RFC's date-time form is read, so Python 3.10 and 3.11 accept the
    same texts: ``fromisoformat`` alone also takes a bare date, a space
    separator, no seconds and, on 3.11, ISO 8601 basic and week forms."""
    text = value.strip()
    if not _DATE_TIME.fullmatch(text):
        raise TrustRootError(f"invalid RFC 3339 timestamp {value!r}")
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    # Python 3.10's fromisoformat reads a fraction of 3 or 6 digits only; 3.11 reads any, to 6.
    text = re.sub(r"\.(\d+)", lambda digits: "." + digits[1][:6].ljust(6, "0"), text, count=1)
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError as exc:
        raise TrustRootError(f"invalid RFC 3339 timestamp {value!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def format_rfc3339(moment: datetime) -> str:
    """ISO 8601 text of ``moment``, with a UTC offset written as ``Z``."""
    return moment.isoformat().replace("+00:00", "Z")


@dataclass(frozen=True)
class SignerRecord:
    """One trusted signer: key material plus the clearance names it may
    assert. ``not_after`` of None means no expiry."""

    key_id: str
    public_key: bytes
    approved_clearance: tuple[str, ...]
    not_after: datetime | None = None
    # The last scheme ``approves`` read and the ranks of the approved names in
    # it. A replaced record starts empty, so no rank outlives its record.
    _approved_ranks: tuple[ClassificationScheme | None, frozenset[int]] = field(
        default=(None, frozenset()), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "approved_clearance", tuple(self.approved_clearance))
        if not self.key_id:
            raise TrustRootError("signer key_id must be non-empty")
        if len(self.public_key) != 32:
            raise TrustRootError(
                f"signer {self.key_id!r}: public key must be 32 bytes, got {len(self.public_key)}"
            )

    def approves(self, scheme: ClassificationScheme, clearance: str) -> bool:
        """Membership test: does ``clearance`` resolve to the same rank as any
        listed approved name? Alias and case differences are tolerated;
        unresolvable names never match."""
        last, ranks = self._approved_ranks
        if last is not scheme:
            ranks = frozenset(rank for name in self.approved_clearance if (rank := scheme.resolve(name)) is not None)
            object.__setattr__(self, "_approved_ranks", (scheme, ranks))
        return scheme.resolve(clearance) in ranks


class TrustRoot:
    """In-process signer set. Reads are lock-free; replacement and locking are
    serialized, and locking is one-way."""

    def __init__(self, signers: Iterable[SignerRecord] = ()) -> None:
        self._mutex = threading.Lock()
        self._signers: dict[str, SignerRecord] = {}
        self._locked = False
        signers = tuple(signers)
        if signers:
            self.set_trust_root(signers)

    def set_trust_root(self, signers: Iterable[SignerRecord]) -> None:
        """Replace the signer set atomically. Raises TrustRootLockedError once
        the root is locked, leaving the existing set in force."""
        records = tuple(signers)
        table: dict[str, SignerRecord] = {}
        for record in records:
            if record.key_id in table:
                raise TrustRootError(f"duplicate signer key id {record.key_id!r}")
            table[record.key_id] = record
        with self._mutex:
            if self._locked:
                raise TrustRootLockedError("trust root is locked; replacement refused")
            self._signers = table

    def lock_trust_root(self) -> None:
        """One-way lock. Idempotent."""
        with self._mutex:
            self._locked = True

    def find(self, key_id: str) -> SignerRecord | None:
        """Exact, case-sensitive signer lookup."""
        return self._signers.get(key_id)

    def key_ids(self) -> tuple[str, ...]:
        return tuple(self._signers)


def load_trust_root_file(raw: bytes | str) -> list[SignerRecord]:
    """Parse the trust root file format:
    ``{"signers": [{"keyId", "publicKey", "approvedClearance", "notAfter"?}]}``
    with base64 public keys. Raises TrustRootError on any malformation,
    including wrong key length or duplicate key ids."""
    data = read_json(raw, TrustRootError, "trust root file is not valid JSON")
    if not isinstance(data, dict) or not isinstance(data.get("signers"), list):
        raise TrustRootError("trust root file must be an object with a 'signers' array")
    records: list[SignerRecord] = []
    seen: set[str] = set()
    for entry in data["signers"]:
        if not isinstance(entry, dict):
            raise TrustRootError("each signer must be a JSON object")
        key_id = entry.get("keyId")
        if not isinstance(key_id, str) or not key_id:
            raise TrustRootError("signer 'keyId' must be a non-empty string")
        if key_id in seen:
            raise TrustRootError(f"duplicate signer key id {key_id!r}")
        seen.add(key_id)
        encoded = entry.get("publicKey")
        if not isinstance(encoded, str):
            raise TrustRootError(f"signer {key_id!r}: 'publicKey' must be a base64 string")
        try:
            public_key = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise TrustRootError(f"signer {key_id!r}: invalid base64 public key") from exc
        approved = entry.get("approvedClearance")
        if not isinstance(approved, list) or not approved or any(
            not isinstance(name, str) or not name for name in approved
        ):
            raise TrustRootError(
                f"signer {key_id!r}: 'approvedClearance' must be a non-empty array of strings"
            )
        not_after = None
        if entry.get("notAfter") is not None:
            raw_deadline = entry["notAfter"]
            if not isinstance(raw_deadline, str):
                raise TrustRootError(f"signer {key_id!r}: 'notAfter' must be an RFC 3339 string")
            not_after = parse_rfc3339(raw_deadline)
        records.append(
            SignerRecord(
                key_id=key_id,
                public_key=public_key,
                approved_clearance=tuple(approved),
                not_after=not_after,
            )
        )
    return records


def trust_root_to_wire(signers: Iterable[SignerRecord]) -> dict:
    """The trust root file format that ``load_trust_root_file`` reads, as a
    JSON-ready dict."""
    return {
        "signers": [
            {
                "keyId": record.key_id,
                "publicKey": base64.b64encode(record.public_key).decode("ascii"),
                "approvedClearance": list(record.approved_clearance),
                **(
                    {"notAfter": format_rfc3339(record.not_after)}
                    if record.not_after is not None
                    else {}
                ),
            }
            for record in signers
        ]
    }
