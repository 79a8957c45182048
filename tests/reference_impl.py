"""Independent reference implementations used as oracles by the tests.

Nothing here imports the package or the json encoder it uses: the canonical
encoder below walks parsed values with a hand-rolled string escaper, and the
chain checker recomputes hashes straight from hashlib. The JSON readers are
``json.loads`` of each text or line, with the package's messages. Tests
compare package output against these byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

_SHORT_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\t": "\\t",
    "\n": "\\n",
    "\f": "\\f",
    "\r": "\\r",
}


def _encode_string(text: str) -> str:
    parts = ['"']
    for ch in text:
        if ch in _SHORT_ESCAPES:
            parts.append(_SHORT_ESCAPES[ch])
        elif ord(ch) < 0x20 or 0xD800 <= ord(ch) <= 0xDFFF:
            # Controls and lone surrogates are written as \uXXXX escapes.
            parts.append("\\u%04x" % ord(ch))
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def _encode(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _encode_string(value)
    if isinstance(value, (list, tuple)):
        members = [_encode(member) for member in value]
        members.sort(key=lambda text: text.encode("utf-8"))
        return "[" + ",".join(members) + "]"
    if isinstance(value, dict):
        # surrogatepass encodes lone surrogates too, keeping code-point order.
        pairs = [
            (key.encode("utf-8", "surrogatepass"), _encode_string(key) + ":" + _encode(member))
            for key, member in value.items()
        ]
        pairs.sort(key=lambda item: item[0])
        return "{" + ",".join(text for _, text in pairs) + "}"
    raise TypeError(f"unsupported type: {type(value).__name__}")


def reference_canonical(value: Any) -> bytes:
    return _encode(value).encode("utf-8")


SAD_BODY_REQUIRED = ("v", "id", "publisher", "version", "clearance", "capabilities")


def reference_sad_body(wire: dict) -> bytes:
    """Canonical signing bytes computed from a raw parsed document dict."""
    body: dict[str, Any] = {name: wire[name] for name in SAD_BODY_REQUIRED}
    body["signerKeyId"] = wire.get("signerKeyId")
    if "netAllowedHosts" in wire and wire["netAllowedHosts"] is not None:
        body["netAllowedHosts"] = wire["netAllowedHosts"]
    if "verification" in wire and wire["verification"] is not None:
        body["verification"] = wire["verification"]
    return reference_canonical(body)


GENESIS = b"\x00" * 32


def reference_chain_first_bad(records: list[dict]) -> int | None:
    """First index at which a wire-format audit log breaks, or None."""
    previous = GENESIS
    for index, record in enumerate(records):
        try:
            prev_hash = bytes.fromhex(record["prevHash"])
            own_hash = bytes.fromhex(record["hash"])
        except (KeyError, ValueError, TypeError):
            return index
        if record.get("seq") != index:
            return index
        if prev_hash != previous:
            return index
        content = reference_canonical(
            {
                "seq": record["seq"],
                "timestamp": record["timestamp"],
                "event": record["event"],
                "payload": record["payload"],
            }
        )
        if hashlib.sha256(prev_hash + content).digest() != own_hash:
            return index
        previous = own_hash
    return None


def reference_read_json(text: bytes | str, error: type[Exception], prefix: str) -> Any:
    """``json.loads`` of one text, bytes read as UTF-8; a failure raises ``error(f"{prefix}: {reason}")``."""
    try:
        return json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{prefix}: {exc}") from exc


def reference_read_jsonl(data: bytes, error: type[Exception]) -> list[tuple[int, Any]]:
    """``(line number, value)`` for each line of ``data`` that ASCII whitespace does not
    fill, each line read whole by ``json.loads``; the first that fails raises ``error``
    with its number and whether it ends in a newline."""
    lines = data.split(b"\n")
    values = []
    for number, line in enumerate(lines):
        ended = number < len(lines) - 1
        if line.strip():
            fault = "not valid JSON" if ended else "torn final line (no newline)"
            text = line + b"\n" if ended else line
            values.append((number, reference_read_json(text, error, f"line {number}: {fault}")))
    return values


_TRICKY_CHARS = (
    '"', "\\", "\n", "\t", "\r", "\x00", "\x01", "\x1f", "\b", "\f",
    "é", "漢", "\U0001f642", " ", " ", "а", " ", "/", "<", "&",
)


def random_text(rng: random.Random, min_len: int = 1, max_len: int = 12) -> str:
    length = rng.randrange(min_len, max_len + 1)
    chars = []
    for _ in range(length):
        if rng.random() < 0.4:
            chars.append(rng.choice(_TRICKY_CHARS))
        else:
            chars.append(chr(rng.randrange(0x20, 0x7F)))
    return "".join(chars)


def random_sad_wire_text(rng: random.Random) -> str:
    """One randomized document as JSON text: random field content, optional
    field presence, array permutations, and shuffled key order."""
    fields: list[tuple[str, Any]] = [
        ("v", 1),
        ("id", random_text(rng)),
        ("publisher", random_text(rng)),
        ("version", random_text(rng)),
        ("clearance", random_text(rng)),
        ("capabilities", [random_text(rng, 0, 8) for _ in range(rng.randrange(0, 5))]),
    ]
    choice = rng.randrange(3)
    if choice == 0:
        fields.append(("signerKeyId", random_text(rng)))
    elif choice == 1:
        fields.append(("signerKeyId", None))
    if rng.random() < 0.5:
        fields.append(("netAllowedHosts", [random_text(rng, 0, 10) for _ in range(rng.randrange(0, 4))]))
    if rng.random() < 0.5:
        fields.append(("verification", random_text(rng)))
    if rng.random() < 0.5:
        fields.append(("signature", random_text(rng, 0, 20)))
    if rng.random() < 0.4:
        fields.append((f"x-unknown-{rng.randrange(100)}", random_text(rng, 0, 6)))
    if rng.random() < 0.2:
        fields.append(("xattrs", {"nested": [random_text(rng, 0, 4)], "n": rng.randrange(100)}))
    rng.shuffle(fields)
    body = ",".join(f"{json.dumps(k, ensure_ascii=False)}:{json.dumps(v, ensure_ascii=False)}" for k, v in fields)
    return "{" + body + "}"
