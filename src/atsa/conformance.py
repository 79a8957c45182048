"""Executable conformance vectors and the seeded adversarial corpus.

The vector set pins the verifier's observable behavior: one valid baseline,
a denial for each of eight reasons (not_mcp_server, unsigned,
signer_not_trusted, signer_expired, signer_not_approved, bad_signature,
below_required, host_not_bound; no vector yet for fetch_failed or
manifest_invalid), and a host-binding admit, each a single mutation away
from the baseline; a vector expects an admit exactly when its
``expect_reason`` is None. The corpus generator replaces ad-hoc
red-teaming with a deterministic campaign: given a seed and an allowlist it
produces hostile tool names in nine categories plus forged attestation
documents covering every admission-side forgery recipe, each tagged with
the reason it must be refused with (its ``expectation``). The runner
asserts that every case, generated or replayed, is refused with exactly its
own expectation and with zero tool-call writes.

Each case family is one ordered table with a row per category:
``_TOOL_CASES`` gives a tool-name category's generator and its anchors, built
from the first allowlisted name; ``_FORGERIES`` gives a forgery category's
recipe and the ``DenyReason`` it must produce. ``TOOL_CATEGORIES`` and
``FORGERY_CATEGORIES`` are their keys, in the order the categories draw from
the corpus's one seeded random stream.

The campaign dispatches through an in-process transport that counts every
request, so "zero tool-call writes" is observed rather than assumed.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import random
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ._json import read_jsonl
from .admission import AdmissionGate, DenyReason, Flavor, Verdict, serving, verify_server_clearance
from .audit import EVENT_TOOL_DENY, AuditLog
from .gateway import (
    DispatchStatus,
    Gateway,
    RegistryEntry,
    ServerRegistry,
    ToolCall,
)
from .lattice import get_builtin_scheme, levels_up_to
from .sad import (
    AttestationDocument,
    KeyPair,
    keypair_from_seed,
    serialize_document,
    sign_document,
)
from .trustroot import SignerRecord, TrustRoot, format_rfc3339, trust_root_to_wire

__all__ = [
    "FORGERY_CATEGORIES",
    "KIND_ASSERTION",
    "KIND_TOOL",
    "TOOL_CATEGORIES",
    "CampaignReport",
    "CampaignSetup",
    "ConformanceVector",
    "CorpusCase",
    "VectorOutcome",
    "VectorReport",
    "build_vectors",
    "campaign_setup",
    "dump_corpus_jsonl",
    "generate_corpus",
    "load_corpus_jsonl",
    "run_campaign",
    "run_vectors",
    "write_vector_fixtures",
]

# Fixed verification instant for vectors and campaigns, so signer-expiry
# behavior is reproducible.
VECTOR_NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)
VECTOR_REQUIRED_LEVEL = "restricted-plus"
_EXPIRED_AT = datetime(2025, 1, 1, tzinfo=timezone.utc)
# The scheme every vector and campaign verifies under, and the ladder its
# fully approved signers may assert.
_SCHEME = get_builtin_scheme("default")
_APPROVED_FULL = tuple(name.lower() for name in levels_up_to(_SCHEME, VECTOR_REQUIRED_LEVEL))


@dataclass(frozen=True)
class ConformanceVector:
    index: int
    title: str
    server_url: str
    required_level: str
    document_bytes: bytes
    signers: tuple[SignerRecord, ...]
    expect_reason: DenyReason | None = None


@dataclass(frozen=True)
class VectorOutcome:
    vector: ConformanceVector
    verdict: Verdict
    passed: bool

    def line(self) -> str:
        expected = "ADMIT" if self.vector.expect_reason is None else f"DENY {self.vector.expect_reason.value}"
        got = "ADMIT" if self.verdict.allowed else f"DENY {self.verdict.reason.value}"
        status = "PASS" if self.passed else "FAIL"
        return f"vector {self.vector.index:02d} {status}  expected {expected}, got {got}  ({self.vector.title})"


@dataclass(frozen=True)
class VectorReport:
    outcomes: tuple[VectorOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def summary(self) -> str:
        good = sum(1 for outcome in self.outcomes if outcome.passed)
        return f"{good}/{len(self.outcomes)} pass"

    def lines(self) -> list[str]:
        return [outcome.line() for outcome in self.outcomes] + [self.summary]


def _baseline_document() -> AttestationDocument:
    return AttestationDocument(
        id="mcp.example.gmail",
        publisher="example-corp",
        version="2.3.1",
        clearance="restricted-plus",
        capabilities=("mcp-server",),
        net_allowed_hosts=(),
    )


def _flip_signature_byte(document: AttestationDocument, position: int = 0, bit: int = 0) -> AttestationDocument:
    raw = bytearray(base64.b64decode(document.signature))
    raw[position % len(raw)] ^= 1 << (bit % 8)
    return replace(document, signature=base64.b64encode(bytes(raw)).decode("ascii"))


def build_vectors(signing_key: KeyPair | None = None) -> list[ConformanceVector]:
    """Eleven vectors: admit baseline, nine denials covering eight reasons
    (all but fetch_failed and manifest_invalid; bad_signature twice), and a
    host-bound admit. Each uses the same signer, ``signing_key`` or else the
    seeded pair ``keypair_from_seed("S", bytes(range(32)))``, so the fixtures
    are the same files on every run; it is approved up through
    restricted-plus except where the vector says otherwise."""
    key = signing_key if signing_key is not None else keypair_from_seed("S", bytes(range(32)))
    trusted = SignerRecord(key.key_id, key.public_key, _APPROVED_FULL)
    expired = SignerRecord(key.key_id, key.public_key, _APPROVED_FULL, not_after=_EXPIRED_AT)
    low_approval = SignerRecord(key.key_id, key.public_key, ("public", "internal"))

    baseline = sign_document(_baseline_document(), key)
    base_url = "https://mcp.example/api"

    def vector(
        index: int,
        title: str,
        document: AttestationDocument,
        *,
        signers: tuple[SignerRecord, ...] = (trusted,),
        server_url: str = base_url,
        expect_reason: DenyReason | None = None,
    ) -> ConformanceVector:
        return ConformanceVector(
            index=index,
            title=title,
            server_url=server_url,
            required_level=VECTOR_REQUIRED_LEVEL,
            document_bytes=serialize_document(document).encode("utf-8"),
            signers=signers,
            expect_reason=expect_reason,
        )

    not_mcp = sign_document(replace(_baseline_document(), capabilities=("tool.invoke",)), key)
    internal = sign_document(replace(_baseline_document(), clearance="internal"), key)
    upgraded = replace(internal, clearance="restricted-plus")
    host_bound = sign_document(replace(_baseline_document(), net_allowed_hosts=("a.example",)), key)

    return [
        vector(1, "valid baseline", baseline),
        vector(2, "capabilities lack mcp-server", not_mcp, expect_reason=DenyReason.not_mcp_server),
        vector(3, "signature removed", replace(baseline, signature=None), expect_reason=DenyReason.unsigned),
        vector(4, "unknown signer key id", replace(baseline, signer_key_id="unknown"), expect_reason=DenyReason.signer_not_trusted),
        vector(5, "signer validity window expired", baseline, signers=(expired,), expect_reason=DenyReason.signer_expired),
        vector(6, "signer approved only to internal", baseline, signers=(low_approval,), expect_reason=DenyReason.signer_not_approved),
        vector(7, "one signature byte flipped", _flip_signature_byte(baseline), expect_reason=DenyReason.bad_signature),
        vector(8, "clearance raised after signing", upgraded, expect_reason=DenyReason.bad_signature),
        vector(9, "clearance below requirement", internal, expect_reason=DenyReason.below_required),
        vector(10, "served from unbound host", host_bound, server_url="https://b.example/mcp", expect_reason=DenyReason.host_not_bound),
        vector(11, "served from bound host", host_bound, server_url="https://a.example/mcp"),
    ]


def _verdict(document: bytes, server_url: str, required_level: str, trust_root: TrustRoot) -> Verdict:
    """``document`` served at ``server_url``, verified at ``VECTOR_NOW`` under the default scheme."""
    return verify_server_clearance(
        server_url, required_level, now=VECTOR_NOW, scheme=_SCHEME, trust_root=trust_root,
        fetcher=serving(document),
    )


def run_vectors(vectors: Sequence[ConformanceVector]) -> VectorReport:
    """Run each vector against the production verifier; it passes when the
    verdict's reason is exactly its ``expect_reason`` (None for an admit)."""
    outcomes = []
    for vec in vectors:
        verdict = _verdict(vec.document_bytes, vec.server_url, vec.required_level, TrustRoot(vec.signers))
        outcomes.append(VectorOutcome(vector=vec, verdict=verdict, passed=verdict.reason is vec.expect_reason))
    return VectorReport(outcomes=tuple(outcomes))


def write_vector_fixtures(vectors: Sequence[ConformanceVector], directory: str | Path) -> Path:
    """Serialize vectors to disk: one SAD file per vector plus a manifest of
    expectations and per-vector trust roots."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest = {
        "requiredLevel": VECTOR_REQUIRED_LEVEL,
        "scheme": "default",
        "now": format_rfc3339(VECTOR_NOW),
        "vectors": [],
    }
    for vec in vectors:
        sad_name = f"vector-{vec.index:02d}.sad.json"
        (target / sad_name).write_bytes(vec.document_bytes)
        manifest["vectors"].append(
            {
                "index": vec.index,
                "title": vec.title,
                "serverUrl": vec.server_url,
                "document": sad_name,
                "trustRoot": trust_root_to_wire(vec.signers),
                "expect": {
                    "allow": vec.expect_reason is None,
                    "reason": vec.expect_reason.value if vec.expect_reason else None,
                },
            }
        )
    manifest_path = target / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest_path


# --------------------------------------------------------------------------
# Seeded adversarial corpus
# --------------------------------------------------------------------------

KIND_TOOL = "tool_name"
KIND_ASSERTION = "forged_assertion"

@dataclass(frozen=True)
class CorpusCase:
    kind: str
    category: str
    input: str
    expectation: str


@dataclass(frozen=True)
class CampaignSetup:
    """Deterministic fixture shared by corpus generation and replay: a locked
    two-signer trust root and the keys the forgery recipes sign with."""

    required_level: str
    signers: tuple[SignerRecord, ...]
    high_key: KeyPair
    low_key: KeyPair
    attacker_key: KeyPair


@functools.lru_cache(maxsize=1)  # the seed fixes all it returns; a corpus and its campaign share it
def campaign_setup(seed: int) -> CampaignSetup:
    rng = random.Random(f"atsa-campaign-setup-{seed}")
    high = keypair_from_seed("campaign-high-tier-signer", rng.randbytes(32))
    low = keypair_from_seed("campaign-community-signer", rng.randbytes(32))
    attacker = keypair_from_seed("attacker-self-signer", rng.randbytes(32))
    signers = (
        SignerRecord(high.key_id, high.public_key, _APPROVED_FULL),
        SignerRecord(low.key_id, low.public_key, ("public", "internal")),
    )
    return CampaignSetup(
        required_level=VECTOR_REQUIRED_LEVEL,
        signers=signers,
        high_key=high,
        low_key=low,
        attacker_key=attacker,
    )


_WHITESPACE_CONTROL = (
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x00", "\x01", "\x07", "\x1b", "\u00a0", "\u2028",
)
_SEPARATORS = ("; ", ";", " && ", "&&", " || ", "|", " | ", ",", " , ", "\n", " & ", "`", "$(")
_SHELL_PAYLOADS = (
    "delete_everything", "rm -rf /", "drop_tables", "send_all_mail", "exfiltrate",
    "shutdown_server", "curl http://evil.example", "cat /etc/passwd", "wipe_disk",
    "sudo su", "nc -e /bin/sh", "format c:",
)
_IDENT_PAYLOADS = ("delete_everything", "admin", "root", "config", "secrets", "backup")
_NEAR_MISS_ALPHABET = "abcdefghijklmnopqrstuvwxyz_"
_HOMOGLYPHS = {
    "a": "а", "c": "с", "d": "ԁ", "e": "е", "h": "һ",
    "i": "і", "j": "ј", "k": "к", "l": "ӏ", "o": "о",
    "p": "р", "s": "ѕ", "t": "т", "x": "х", "y": "у",
    "_": "\uff3f",
}
_ZERO_WIDTH = ("\u200b", "\u200c", "\u200d", "\ufeff", "\u2060")
_RTL_MARKS = ("\u202e", "\u200f", "\u061c", "\u202b")
_PROTO_PROBES = (
    "__proto__", "constructor", "prototype", "__defineGetter__", "__defineSetter__",
    "__lookupGetter__", "hasOwnProperty", "toString", "valueOf", "__class__",
    "__globals__", "__init__",
)
_UNCLASSIFIED_WORDS = (
    "delete", "everything", "admin", "export", "send", "mail", "drop", "database",
    "shadow", "config", "secret", "wipe", "disk", "shell", "exec", "sudo",
)


def _gen_whitespace_control(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    mark = rng.choice(_WHITESPACE_CONTROL)
    mode = rng.randrange(4)
    if mode == 0:
        return mark + base
    if mode == 1:
        return base + mark
    if mode == 2:
        position = rng.randrange(1, max(2, len(base)))
        return base[:position] + mark + base[position:]
    return mark + base + rng.choice(_WHITESPACE_CONTROL)


def _gen_separator_chaining(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    separator = rng.choice(_SEPARATORS)
    payload = rng.choice(_SHELL_PAYLOADS)
    if rng.random() < 0.4:
        payload = f"{payload}_{rng.randrange(1000)}"
    if rng.random() < 0.2:
        return payload + separator + base
    return base + separator + payload


def _gen_near_miss(rng: random.Random, allowlist: Sequence[str]) -> str:
    name = rng.choice(allowlist)
    for _ in range(rng.randrange(1, 3)):
        if not name:
            break
        kind = rng.randrange(5)
        position = rng.randrange(len(name))
        if kind == 0:
            name = name[:position] + name[position + 1 :]
        elif kind == 1:
            name = name[:position] + rng.choice(_NEAR_MISS_ALPHABET) + name[position:]
        elif kind == 2:
            name = name[:position] + rng.choice(_NEAR_MISS_ALPHABET) + name[position + 1 :]
        elif kind == 3 and position < len(name) - 1:
            name = name[:position] + name[position + 1] + name[position] + name[position + 2 :]
        else:
            name = name + rng.choice(_NEAR_MISS_ALPHABET)
    return name


def _gen_path_traversal(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    other = rng.choice(_IDENT_PAYLOADS)
    patterns = (
        f"../{base}",
        f"../../{base}",
        f"{base}/../{other}",
        f"/{base}",
        f"./{base}",
        f"{base}/..",
        f"..\\{base}",
        f"{base}\\..\\{other}",
        f"%2e%2e/{base}",
        f"{base}/./{rng.randrange(100)}",
        f"/usr/local/bin/{base}",
        f"~/{base}",
    )
    return rng.choice(patterns)


def _gen_homoglyph(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    mode = rng.randrange(3)
    if mode == 0:
        swappable = [i for i, ch in enumerate(base) if ch.lower() in _HOMOGLYPHS]
        if swappable:
            count = rng.randrange(1, min(3, len(swappable)) + 1)
            chars = list(base)
            for index in rng.sample(swappable, count):
                chars[index] = _HOMOGLYPHS[chars[index].lower()]
            return "".join(chars)
        mode = 1
    if mode == 1:
        position = rng.randrange(len(base) + 1)
        return base[:position] + rng.choice(_ZERO_WIDTH) + base[position:]
    mark = rng.choice(_RTL_MARKS)
    return mark + base if rng.random() < 0.7 else base + mark


def _gen_case_variant(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    letters = [i for i, ch in enumerate(base) if ch.isalpha()]
    if not letters:
        return base + "X"
    count = rng.randrange(1, len(letters) + 1)
    chars = list(base)
    for index in rng.sample(letters, count):
        chars[index] = chars[index].swapcase()
    return "".join(chars)


def _gen_prototype_probe(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    probe = rng.choice(_PROTO_PROBES)
    patterns = (
        probe,
        f"{base}.{probe}",
        f"{probe}.{base}",
        f"{base}['{probe}']",
        f"{probe}.{rng.choice(_PROTO_PROBES)}",
        f"{base}.{probe}.polluted{rng.randrange(100)}",
        f"{probe}[{rng.randrange(10)}]",
    )
    return rng.choice(patterns)


def _gen_json_smuggling(rng: random.Random, allowlist: Sequence[str]) -> str:
    base = rng.choice(allowlist)
    other = rng.choice(_IDENT_PAYLOADS)
    patterns = (
        f'{{"name":"{base}"}}',
        f'{base}","arguments":{{}}',
        f'{base}\\u0022,\\u0022{other}',
        f'"{base}"',
        f'{base}"}},{{"name":"{other}"',
        f'{base}\\n"{other}"',
        f'{base}\\\\"{rng.randrange(100)}',
        f'{{"jsonrpc":"2.0","method":"tools/call","params":{{"name":"{base}"}}}}',
        f'{base}\x00"{other}"',
    )
    return rng.choice(patterns)


def _gen_unclassified(rng: random.Random, allowlist: Sequence[str]) -> str:
    style = rng.randrange(3)
    if style == 0:
        words = [rng.choice(_UNCLASSIFIED_WORDS) for _ in range(rng.randrange(1, 4))]
        return "_".join(words)
    if style == 1:
        length = rng.randrange(3, 21)
        charset = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-./"
        return "".join(rng.choice(charset) for _ in range(length))
    return f"{rng.choice(_UNCLASSIFIED_WORDS)}.{rng.choice(_UNCLASSIFIED_WORDS)}{rng.randrange(1000)}"


# Category -> (generator, anchors). Anchors are classic hand-written evasions
# of the first allowlisted name, emitted before any generated case, so the
# well-known shapes are present whatever the seed.
_TOOL_CASES: dict[str, tuple[Callable[[random.Random, Sequence[str]], str], Callable[[str], tuple[str, ...]]]] = {
    "whitespace_control": (_gen_whitespace_control, lambda first: (f" {first}", f"{first} ", f"{first}\n", f"{first}\x00")),
    "separator_chaining": (_gen_separator_chaining, lambda first: (f"{first}; delete_everything", f"{first} && rm -rf /", f"{first}|sh")),
    "near_miss": (_gen_near_miss, lambda first: (first[:-1], f"{first}s", f"{first}2")),
    "path_traversal": (_gen_path_traversal, lambda first: (f"../{first}", f"{first}/../admin")),
    "homoglyph_zero_width_rtl": (_gen_homoglyph, lambda first: (f"{first}\u200b", f"\u202e{first}")),
    "case_variant": (_gen_case_variant, lambda first: (first.upper(), first.capitalize(), first.swapcase())),
    "prototype_probe": (_gen_prototype_probe, lambda first: ("__proto__", "constructor", f"{first}.__proto__")),
    "json_smuggling": (_gen_json_smuggling, lambda first: (f'{{"name":"{first}"}}', f'{first}"', f'"{first}"')),
    "unclassified": (_gen_unclassified, lambda first: ("delete_everything", "admin", "exfiltrate_data")),
}

TOOL_CATEGORIES = tuple(_TOOL_CASES)


def _forged_base(
    rng: random.Random,
    clearance: str = "restricted-plus",
    capabilities: tuple[str, ...] = ("mcp-server",),
) -> AttestationDocument:
    return AttestationDocument(
        id=f"mcp.forged.example.svc{rng.randrange(1_000_000)}",
        publisher=f"forged-publisher-{rng.randrange(1000)}",
        version=f"{rng.randrange(10)}.{rng.randrange(10)}.{rng.randrange(100)}",
        clearance=clearance,
        capabilities=capabilities,
    )


def _forge_unsigned(rng: random.Random, setup: CampaignSetup) -> str:
    document = sign_document(_forged_base(rng), setup.high_key)
    variant = rng.randrange(3)
    if variant == 0:
        document = replace(document, signature=None)
    elif variant == 1:
        document = replace(document, signer_key_id=None)
    else:
        document = replace(document, signer_key_id=None, signature=None)
    return serialize_document(document, indent=None)


def _forge_wrong_signer(rng: random.Random, setup: CampaignSetup) -> str:
    if rng.random() < 0.5:
        document = sign_document(_forged_base(rng), setup.high_key)
        document = replace(document, signer_key_id=f"unknown-key-{rng.randrange(1_000_000)}")
    else:
        document = sign_document(_forged_base(rng), setup.attacker_key)
    return serialize_document(document, indent=None)


def _forge_self_promotion(rng: random.Random, setup: CampaignSetup) -> str:
    clearance = rng.choice(("confidential", "restricted", "restricted-plus", "sci", "SECRET"))
    document = sign_document(_forged_base(rng, clearance=clearance), setup.low_key)
    return serialize_document(document, indent=None)


def _forge_signature_tamper(rng: random.Random, setup: CampaignSetup) -> str:
    document = sign_document(_forged_base(rng), setup.high_key)
    document = _flip_signature_byte(document, rng.randrange(64), rng.randrange(8))
    return serialize_document(document, indent=None)


def _forge_post_signing_upgrade(rng: random.Random, setup: CampaignSetup) -> str:
    start = rng.choice(("public", "internal", "confidential", "restricted"))
    document = sign_document(_forged_base(rng, clearance=start), setup.high_key)
    return serialize_document(replace(document, clearance="restricted-plus"), indent=None)


_NON_MCP_CAPABILITIES = (
    ("tool.invoke",), (), ("mcp-client",), ("server", "tools"), ("MCP-SERVER",), ("mcp_server",),
)


def _forge_capability_omission(rng: random.Random, setup: CampaignSetup) -> str:
    capabilities = rng.choice(_NON_MCP_CAPABILITIES)
    document = sign_document(_forged_base(rng, capabilities=capabilities), setup.high_key)
    return serialize_document(document, indent=None)


def _forge_level_shortfall(rng: random.Random, setup: CampaignSetup) -> str:
    clearance = rng.choice(("public", "internal", "confidential", "restricted", "CUI", "SECRET", "Internal"))
    document = sign_document(_forged_base(rng, clearance=clearance), setup.high_key)
    return serialize_document(document, indent=None)


def _forge_malformed(rng: random.Random, setup: CampaignSetup) -> str:
    document = sign_document(_forged_base(rng), setup.high_key)
    text = serialize_document(document, indent=None)
    variant = rng.randrange(6)
    if variant == 0:
        return text[: rng.randrange(1, max(2, len(text) // 2))]
    if variant == 1:
        return f"!!not-json-{rng.randrange(1_000_000)}!!"
    if variant == 4:
        return json.dumps([text[:20], rng.randrange(100)])
    data = json.loads(text)  # the document just serialized, not outside input
    if variant == 2:
        data["v"] = rng.choice(["1", 1.5, None, True])
    elif variant == 3:
        data["v"] = 2
    else:
        data.pop(rng.choice(("id", "publisher", "version", "clearance", "capabilities")))
    return json.dumps(data)


# Category -> (recipe, the clause its forged documents must be denied at).
_FORGERIES: dict[str, tuple[Callable[[random.Random, CampaignSetup], str], DenyReason]] = {
    "unsigned": (_forge_unsigned, DenyReason.unsigned),
    "wrong_signer": (_forge_wrong_signer, DenyReason.signer_not_trusted),
    "self_promotion": (_forge_self_promotion, DenyReason.signer_not_approved),
    "signature_tamper": (_forge_signature_tamper, DenyReason.bad_signature),
    "post_signing_upgrade": (_forge_post_signing_upgrade, DenyReason.bad_signature),
    "capability_omission": (_forge_capability_omission, DenyReason.not_mcp_server),
    "level_shortfall": (_forge_level_shortfall, DenyReason.below_required),
    "malformed": (_forge_malformed, DenyReason.manifest_invalid),
}

FORGERY_CATEGORIES = tuple(_FORGERIES)


def _distinct(candidates: Iterable[str], quota: int, taken: set[str], label: str) -> list[str]:
    """The first ``quota`` candidates not already in ``taken``, each added to
    it. No candidate is pulled once the quota is met, so a lazy generator
    leaves the random stream exactly where the last accepted case left it."""
    picked: list[str] = []
    for candidate in candidates:
        if candidate in taken:
            continue
        taken.add(candidate)
        picked.append(candidate)
        if len(picked) == quota:
            return picked
    raise ValueError(f"{label}: cannot produce {quota} distinct cases")


def generate_corpus(seed: int, allowlist: Sequence[str], per_category: int = 200) -> list[CorpusCase]:
    """Deterministic corpus: ``per_category`` distinct hostile tool names per
    category (none byte-equal to an allowlist member) plus ``per_category``
    forged attestation documents per forgery recipe, each tagged with the
    denial it must produce. Raises ValueError when the allowlist is too
    short to yield ``per_category`` distinct cases."""
    allowlist = tuple(allowlist)
    if not allowlist or any(not name for name in allowlist):
        raise ValueError("allowlist must be a non-empty list of non-empty names")
    if per_category < 1:
        raise ValueError("per_category must be at least 1")
    rng = random.Random(f"atsa-corpus-{seed}")
    draws = range(per_category * 1000)  # generated candidates tried per category
    cases: list[CorpusCase] = []

    # Starting "taken" with the empty name and the allowlist keeps both out.
    seen_names = {"", *allowlist}
    for category, (generator, anchors) in _TOOL_CASES.items():
        candidates = itertools.chain(anchors(allowlist[0]), (generator(rng, allowlist) for _ in draws))
        for name in _distinct(candidates, per_category, seen_names, f"category {category!r}"):
            cases.append(CorpusCase(KIND_TOOL, category, name, DenyReason.tool_not_admitted.value))

    setup = campaign_setup(seed)
    seen_documents: set[str] = set()
    for category, (recipe, reason) in _FORGERIES.items():
        candidates = (recipe(rng, setup) for _ in draws)
        for text in _distinct(candidates, per_category, seen_documents, f"recipe {category!r}"):
            cases.append(CorpusCase(KIND_ASSERTION, category, text, reason.value))
    return cases


@dataclass(frozen=True)
class CategoryResult:
    kind: str
    category: str
    total: int
    denied: int
    admitted: int


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    allowlist: tuple[str, ...]
    categories: tuple[CategoryResult, ...]
    network_writes: int
    tool_denials_audited: int
    mismatches: tuple[tuple[str, str, str], ...]  # (category, input, got)

    @property
    def tool_cases(self) -> int:
        return sum(c.total for c in self.categories if c.kind == KIND_TOOL)

    @property
    def assertion_cases(self) -> int:
        return sum(c.total for c in self.categories if c.kind == KIND_ASSERTION)

    @property
    def admitted(self) -> int:
        return sum(c.admitted for c in self.categories)

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.network_writes == 0

    def render_text(self) -> str:
        lines = [f"adversarial campaign  seed={self.seed}  allowlist={list(self.allowlist)}"]
        for kind, heading in (
            (KIND_TOOL, "tool-name cases (denied/total):"),
            (KIND_ASSERTION, "forged assertions, denied at the targeted clause (denied/total):"),
        ):
            lines.append(heading)
            lines.extend(f"  {c.category:<26} {c.denied}/{c.total}" for c in self.categories if c.kind == kind)
        lines.append(
            f"totals: {self.tool_cases} hostile tool names, {self.assertion_cases} forged assertions, "
            f"{self.admitted} admitted"
        )
        lines.append(f"tool denials audited: {self.tool_denials_audited}")
        lines.append(f"network writes observed: {self.network_writes}")
        for category, case_input, got in self.mismatches[:20]:
            lines.append(f"MISMATCH [{category}] {case_input!r} -> {got}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "allowlist": list(self.allowlist),
            "categories": [asdict(c) for c in self.categories],
            "networkWrites": self.network_writes,
            "toolDenialsAudited": self.tool_denials_audited,
            "mismatches": [
                {"category": category, "input": case_input, "got": got}
                for category, case_input, got in self.mismatches
            ],
            "passed": self.passed,
        }


class _CountingTransport:
    """The campaign's transport: it counts every request and answers each with
    a null result, so a case that leaks past the gate reads as admitted."""

    def __init__(self) -> None:
        self.calls = 0

    def next_id(self) -> int:
        return self.calls + 1

    def request(self, payload: Mapping[str, Any], headers: Mapping[str, str]) -> Any:
        self.calls += 1
        return {"jsonrpc": "2.0", "id": payload["id"], "result": None}


CAMPAIGN_ENDPOINT = "https://campaign.tools.example/mcp"
_FORGED_SERVER = "https://forged.campaign.example/mcp"


def run_campaign(
    cases: Sequence[CorpusCase],
    *,
    seed: int,
    allowlist: Sequence[str],
    audit: AuditLog | None = None,
) -> CampaignReport:
    """Replay a corpus against a fully wired gateway (enclaved flavor, locked
    trust root, counting transport). Every case must be denied with exactly
    its own ``expectation``: a tool name through the gateway, with zero
    transport writes, and a forged assertion at its targeted clause."""
    allowlist = tuple(allowlist)
    setup = campaign_setup(seed)
    audit_log = audit if audit is not None else AuditLog(clock=lambda: VECTOR_NOW)
    transport = _CountingTransport()

    server_sad = sign_document(_baseline_document(), setup.high_key)
    fetcher = serving(serialize_document(server_sad).encode("utf-8"))
    trust_root = TrustRoot(setup.signers)
    trust_root.lock_trust_root()
    gate = AdmissionGate(_SCHEME, trust_root, fetcher, audit_log)

    registry = ServerRegistry()
    registry.register(
        RegistryEntry(
            endpoint=CAMPAIGN_ENDPOINT,
            bridge_id="campaign-bridge",
            required_clearance=setup.required_level,
            allowed_tools=frozenset(allowlist),
            transport=transport,
        )
    )
    registry.freeze()
    gateway = Gateway(registry, gate, audit_log, flavor=Flavor.enclaved)

    ordered: dict[tuple[str, str], list[CorpusCase]] = {}
    for case in cases:
        ordered.setdefault((case.kind, case.category), []).append(case)

    results: list[CategoryResult] = []
    mismatches: list[tuple[str, str, str]] = []

    for (kind, category), bucket in ordered.items():
        denied = 0
        admitted = 0
        for case in bucket:
            if kind == KIND_TOOL:
                outcome = gateway.invoke(CAMPAIGN_ENDPOINT, ToolCall(case.input))
                if outcome.status is DispatchStatus.ok:
                    got = "admitted"
                else:
                    got = outcome.reason.value if outcome.reason else outcome.status.value
            else:
                # A lone surrogate reaches the parser as its \uXXXX escape.
                document = case.input.encode("utf-8", errors="backslashreplace")
                verdict = _verdict(document, _FORGED_SERVER, setup.required_level, trust_root)
                got = "admitted" if verdict.allowed else verdict.reason.value
            # No status or reason is spelled "admitted", so it marks an admit.
            if got == "admitted":
                admitted += 1
            elif got == case.expectation:
                denied += 1
                continue
            mismatches.append((category, case.input, got))
        results.append(
            CategoryResult(kind=kind, category=category, total=len(bucket), denied=denied, admitted=admitted)
        )

    tool_denials = sum(1 for record in audit_log.records if record.event == EVENT_TOOL_DENY)
    return CampaignReport(
        seed=seed,
        allowlist=allowlist,
        categories=tuple(results),
        network_writes=transport.calls,
        tool_denials_audited=tool_denials,
        mismatches=tuple(mismatches),
    )


def dump_corpus_jsonl(cases: Iterable[CorpusCase], path: str | Path) -> None:
    # A lone surrogate, only ever inside a JSON string, is written as its escape.
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as handle:
        for case in cases:
            # One object per line, keyed by the CorpusCase field names.
            handle.write(json.dumps(asdict(case), ensure_ascii=False) + "\n")


def load_corpus_jsonl(path: str | Path) -> list[CorpusCase]:
    """Replay hook for externally produced corpora (one JSON object per
    line). Categories outside the known sets are rejected; the kind follows
    from the category, and an explicit ``kind`` must agree with it."""
    known = set(TOOL_CATEGORIES) | set(FORGERY_CATEGORIES)
    cases: list[CorpusCase] = []
    for line_number, data in read_jsonl(path, ValueError):
        if not isinstance(data, dict):
            raise ValueError(f"line {line_number}: a corpus case must be a JSON object")
        category = data.get("category")
        if category not in known:
            raise ValueError(f"line {line_number}: unknown category {category!r}")
        kind = KIND_TOOL if category in TOOL_CATEGORIES else KIND_ASSERTION
        if data.get("kind", kind) != kind:
            raise ValueError(f"line {line_number}: kind {data['kind']!r} does not match category {category!r}")
        case_input = data.get("input")
        expectation = data.get("expectation")
        if not isinstance(case_input, str) or not isinstance(expectation, str):
            raise ValueError(f"line {line_number}: 'input' and 'expectation' must be strings")
        cases.append(CorpusCase(kind, category, case_input, expectation))
    return cases
