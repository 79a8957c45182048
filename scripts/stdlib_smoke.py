#!/usr/bin/env python3
"""The parts of atsa that need only the standard library run on a bare interpreter.

Writes a JSONL audit log whose record holds a lone surrogate, verifies it,
resumes it with a second sink and verifies it again; round-trips an RFC 3339
timestamp; and loads a trust-root file. Then it checks that neither
``cryptography`` nor ``click`` was imported. It imports atsa from the ``src``
next to it and needs no installed package, so it runs before any install, on
every supported Python (3.10 and later). It prints ``stdlib smoke: ok`` and
exits 0, or names the first failed check and exits 1:

    python scripts/stdlib_smoke.py
"""

from __future__ import annotations

import base64
import json
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from atsa.audit import EVENT_TOOL_DENY, AuditLog, JsonlAuditSink, load_audit_jsonl, verify_chain  # noqa: E402
from atsa.trustroot import format_rfc3339, load_trust_root_file, parse_rfc3339  # noqa: E402

DENIAL = {"server": "https://tools.example/", "bridge": "bridge-1", "toolName": "list_\ud800", "reason": "not in allowedTools"}
MOMENT = datetime(2026, 1, 2, 3, 4, 5, 678000, tzinfo=timezone.utc)


def _check(holds: bool, what: str) -> None:
    if not holds:
        raise SystemExit(f"stdlib smoke: {what} failed")


def _append_one(path: Path) -> None:
    """One tool denial appended through a fresh sink, which resumes the file's chain."""
    sink = JsonlAuditSink(path)
    try:
        AuditLog(sink).append(EVENT_TOOL_DENY, DENIAL)
    finally:
        sink.close()


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.jsonl"
        _append_one(path)
        records = load_audit_jsonl(path)
        _check(verify_chain(records) is None, "verifying the log")
        _check(records[0].payload == DENIAL, "reading back the lone surrogate")
        _append_one(path)
        records = load_audit_jsonl(path)
        _check(len(records) == 2 and verify_chain(records) is None, "resuming the log")
    _check(parse_rfc3339(format_rfc3339(MOMENT)) == MOMENT, "the RFC 3339 round trip")
    signer = {"keyId": "k1", "publicKey": base64.b64encode(bytes(32)).decode("ascii"),
              "approvedClearance": ["public"], "notAfter": format_rfc3339(MOMENT)}
    records = load_trust_root_file(json.dumps({"signers": [signer]}))
    _check([(record.key_id, record.not_after) for record in records] == [("k1", MOMENT)], "loading a trust root")
    loaded = sorted({"cryptography", "click"} & set(sys.modules))
    _check(not loaded, f"importing no third-party package ({', '.join(loaded)} loaded)")
    print("stdlib smoke: ok")


if __name__ == "__main__":
    main()
