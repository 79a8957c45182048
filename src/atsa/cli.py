"""Operator command-line surface.

Subcommands: keygen, sign, verify, vectors, fuzz, audit-verify, serve.

Exit codes are stable: 0 success or ADMIT, 1 verdict or conformance failure
(denial, vector mismatch, corpus violation, broken audit chain), 2
configuration or usage error, 3 internal error. Denial reason codes are
printed verbatim, one per line, on stderr.

Every repeated flag has an environment fallback: --trust-root/ATSA_TRUST_ROOT,
--scheme/ATSA_SCHEME, --flavor/ATSA_FLAVOR, --audit/ATSA_AUDIT_LOG,
--registry/ATSA_REGISTRY.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from ._json import read_json

# Each command imports what it runs in its own body, so its process loads only that.
if TYPE_CHECKING:
    from .audit import AuditLog
    from .lattice import ClassificationScheme
    from .sad import KeyPair
    from .trustroot import TrustRoot

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

DEFAULT_FUZZ_ALLOWLIST = "list_labels,create_draft"


class ConfigError(click.ClickException):
    """Configuration problem: wrong files, unknown scheme, missing key."""

    exit_code = EXIT_CONFIG


def _load_scheme_spec(spec: str) -> ClassificationScheme:
    from .lattice import BUILTIN_SCHEME_NAMES, SchemeError, get_builtin_scheme, load_scheme
    if spec in BUILTIN_SCHEME_NAMES:
        return get_builtin_scheme(spec)
    path = Path(spec)
    if path.exists():
        try:
            return load_scheme(path.read_bytes())
        except SchemeError as exc:
            raise ConfigError(f"invalid scheme file {spec}: {exc}") from exc
    raise ConfigError(
        f"unknown scheme {spec!r}: not a builtin ({', '.join(BUILTIN_SCHEME_NAMES)}) and not a file"
    )


def _load_trust_root(path: str, lock: bool) -> TrustRoot:
    from .trustroot import TrustRoot, TrustRootError, load_trust_root_file
    try:
        records = load_trust_root_file(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read trust root {path}: {exc}") from exc
    except TrustRootError as exc:
        raise ConfigError(f"invalid trust root {path}: {exc}") from exc
    root = TrustRoot(records)
    if lock:
        root.lock_trust_root()
    return root


def _open_audit_log(audit_path: str | None) -> AuditLog:
    """An audit file is one chain; repeated runs continue it rather than
    starting a second genesis that a later audit-verify would flag. The sink
    locks the file and reads its verified head under the lock, so another
    run on the same file waits until this one exits. The sink is closed when
    the command exits, whichever way it exits."""
    from .audit import AuditError, AuditLog, JsonlAuditSink
    if not audit_path:
        return AuditLog()
    try:
        sink = click.get_current_context().with_resource(contextlib.closing(JsonlAuditSink(audit_path)))
    except AuditError as exc:
        raise ConfigError(f"cannot append to audit log {audit_path}: {exc}") from exc
    return AuditLog(sink)


def _load_keypair(path: str) -> KeyPair:
    from .sad import keypair_from_seed
    try:
        data = read_json(Path(path).read_bytes(), ConfigError, f"invalid key file {path}")
        if not isinstance(data["keyId"], str) or not data["keyId"]:
            raise ConfigError(f"invalid key file {path}: 'keyId' must be a non-empty string")
        pair = keypair_from_seed(data["keyId"], base64.b64decode(data["privateKey"], validate=True))
        if base64.b64decode(data["publicKey"], validate=True) != pair.public_key:
            raise ConfigError(f"invalid key file {path}: 'publicKey' is not the public key of 'privateKey'")
        return pair
    except OSError as exc:
        raise ConfigError(f"cannot read key file {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid key file {path}: {exc}") from exc


@click.group()
def cli() -> None:
    """Attested tool-server admission toolkit.

    Exit codes: 0 = success/ADMIT, 1 = verdict or conformance failure,
    2 = configuration or usage error, 3 = internal error.
    """


@cli.command()
@click.option("--out", "out_path", required=True, type=click.Path(), help="Private key file; <out>.pub is written next to it.")
@click.option("--key-id", default=None, help="Signer key id embedded in both files (default: file name).")
def keygen(out_path: str, key_id: str | None) -> None:
    """Generate an Ed25519 signing keypair."""
    from .sad import generate_keypair
    private_path = Path(out_path)
    public_path = Path(out_path + ".pub")
    if private_path.exists() or public_path.exists():
        raise ConfigError(f"refusing to overwrite existing {private_path} or {public_path}")
    pair = generate_keypair(key_id or private_path.name)
    assert pair.private_key is not None
    private_payload = json.dumps(
        {
            "keyId": pair.key_id,
            "publicKey": base64.b64encode(pair.public_key).decode("ascii"),
            "privateKey": base64.b64encode(pair.private_key).decode("ascii"),
        },
        indent=2,
    )
    descriptor = os.open(private_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        handle.write(private_payload + "\n")
    public_path.write_text(
        json.dumps(
            {"keyId": pair.key_id, "publicKey": base64.b64encode(pair.public_key).decode("ascii")},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    click.echo(f"wrote {private_path} and {public_path} (keyId {pair.key_id})")


@cli.command()
@click.argument("sad_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--key", "key_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Private key file from keygen.")
@click.option("--out", "out_path", default=None, type=click.Path(), help="Output path (default: rewrite SAD_PATH in place).")
def sign(sad_path: str, key_path: str, out_path: str | None) -> None:
    """Sign an attestation document. Re-signing replaces any prior signature."""
    from .sad import DocumentError, parse_document, serialize_document, sign_document
    pair = _load_keypair(key_path)
    try:
        document = parse_document(Path(sad_path).read_bytes())
    except DocumentError as exc:
        raise ConfigError(f"cannot sign {sad_path}: {exc}") from exc
    signed = sign_document(document, pair)
    destination = Path(out_path or sad_path)
    # A lone surrogate, which can only sit inside a JSON string, is written as
    # its \uXXXX escape instead of failing once the file is truncated.
    destination.write_text(serialize_document(signed) + "\n", encoding="utf-8", errors="backslashreplace")
    click.echo(f"signed {destination} as {pair.key_id}")


@cli.command()
@click.argument("target")
@click.option("--required", "required_level", required=True, help="Clearance level the server must prove.")
@click.option("--origin", default=None, help="Host standing in for the serving origin when TARGET is a file.")
@click.option("--trust-root", "trust_root_path", envvar="ATSA_TRUST_ROOT", required=True, type=click.Path(exists=True, dir_okay=False), help="Trust root JSON (env: ATSA_TRUST_ROOT).")
@click.option("--scheme", "scheme_spec", envvar="ATSA_SCHEME", default="default", show_default=True, help="Builtin scheme name or path to a scheme JSON file (env: ATSA_SCHEME).")
@click.option("--flavor", envvar="ATSA_FLAVOR", type=click.Choice(["open", "enclaved"]), default="open", show_default=True, help="Deployment posture: open warns on gate failures, enclaved denies (env: ATSA_FLAVOR).")
@click.option("--audit", "audit_path", envvar="ATSA_AUDIT_LOG", default=None, type=click.Path(), help="Append the decision to this JSONL audit log (env: ATSA_AUDIT_LOG).")
@click.option("--lock", is_flag=True, help="Lock the trust root after loading; nothing can widen it for the process lifetime.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report on stdout.")
def verify(
    target: str,
    required_level: str,
    origin: str | None,
    trust_root_path: str,
    scheme_spec: str,
    flavor: str,
    audit_path: str | None,
    lock: bool,
    as_json: bool,
) -> None:
    """Verify a server URL or SAD file. Exit 0 on ADMIT, 1 on DENY.

    The denial reason code is printed verbatim on stderr.
    """
    from .admission import AdmissionGate, Flavor, HttpFetcher, serving
    from .audit import EVENT_CONNECT_ALLOW, EVENT_CONNECT_DENY, EVENT_CONNECT_WARN
    from .lattice import LevelNotFoundError
    scheme = _load_scheme_spec(scheme_spec)
    trust_root = _load_trust_root(trust_root_path, lock)
    audit = _open_audit_log(audit_path)

    if target.startswith(("http://", "https://")):
        server_url = target
        fetcher = HttpFetcher()
    else:
        path = Path(target)
        if not path.is_file():
            raise ConfigError(f"target {target!r} is neither an http(s) URL nor a readable file")
        body = path.read_bytes()
        server_url = f"https://{origin or 'localhost'}/"
        fetcher = serving(body)

    gate = AdmissionGate(scheme, trust_root, fetcher, audit)
    try:
        verdict = gate.connect(server_url, required_level, Flavor(flavor))
    except LevelNotFoundError as exc:
        raise ConfigError(f"required level {required_level!r} does not resolve in scheme {scheme.name!r}") from exc

    if as_json:
        # The gate's one record says what the flavor made of the verdict.
        status = {EVENT_CONNECT_ALLOW: "ok", EVENT_CONNECT_DENY: "denied", EVENT_CONNECT_WARN: "warn"}[audit.records[-1].event]
        click.echo(
            json.dumps(
                {
                    "status": status,
                    "allowed": verdict.allowed,
                    "clearance": verdict.clearance,
                    "signerKeyId": verdict.signer_key_id,
                    "reason": verdict.reason.value if verdict.reason else None,
                    "detail": verdict.detail,
                    "flavorNote": "open flavor: warn-only" if status == "warn" else None,
                },
                indent=2,
            )
        )
    if verdict.allowed:
        if not as_json:
            click.echo(f"ADMIT clearance={verdict.clearance} signerKeyId={verdict.signer_key_id}")
        sys.exit(EXIT_OK)
    click.echo(verdict.reason.value, err=True)
    if not as_json and verdict.detail:
        click.echo(f"DENY: {verdict.detail}")
    sys.exit(EXIT_VERDICT)


@cli.command()
@click.option("--out", "fixtures_dir", default=None, type=click.Path(), help="Also write SAD fixtures and a manifest to this directory.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report on stdout.")
def vectors(fixtures_dir: str | None, as_json: bool) -> None:
    """Build and run the conformance vector set; expect '11/11 pass'."""
    from .conformance import build_vectors, run_vectors, write_vector_fixtures
    vector_set = build_vectors()
    report = run_vectors(vector_set)
    if fixtures_dir:
        write_vector_fixtures(vector_set, fixtures_dir)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "passed": report.passed,
                    "summary": report.summary,
                    "vectors": [
                        {
                            "index": outcome.vector.index,
                            "title": outcome.vector.title,
                            "passed": outcome.passed,
                            "expected": outcome.vector.expect_reason.value
                            if outcome.vector.expect_reason
                            else "admit",
                            "got": outcome.verdict.reason.value if outcome.verdict.reason else "admit",
                        }
                        for outcome in report.outcomes
                    ],
                },
                indent=2,
            )
        )
    else:
        click.echo("\n".join(report.lines()))
    sys.exit(EXIT_OK if report.passed else EXIT_VERDICT)


@cli.command()
@click.option("--seed", type=int, default=1, show_default=True, help="Corpus seed; identical seeds give byte-identical reports.")
@click.option("--per-category", type=click.IntRange(min=1), default=200, show_default=True, help="Cases per tool-name category and per forgery recipe.")
@click.option("--allowlist", default=DEFAULT_FUZZ_ALLOWLIST, show_default=True, help="Comma-separated exact tool names under test.")
@click.option("--registry", "registry_path", envvar="ATSA_REGISTRY", default=None, type=click.Path(exists=True, dir_okay=False), help="Take the allowlist from the first entry of this registry file instead (env: ATSA_REGISTRY).")
@click.option("--corpus", "corpus_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Replay an externally supplied corpus JSONL instead of generating one.")
@click.option("--corpus-out", "corpus_out", default=None, type=click.Path(), help="Write the corpus that was run to this JSONL file.")
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON on stdout.")
def fuzz(
    seed: int,
    per_category: int,
    allowlist: str,
    registry_path: str | None,
    corpus_path: str | None,
    corpus_out: str | None,
    as_json: bool,
) -> None:
    """Run the seeded adversarial campaign against a fully wired gateway."""
    from .conformance import dump_corpus_jsonl, generate_corpus, load_corpus_jsonl, run_campaign
    from .gateway import RegistryError, load_registry_file
    if registry_path:
        try:
            entries = load_registry_file(Path(registry_path).read_bytes())
        except RegistryError as exc:
            raise ConfigError(f"invalid registry {registry_path}: {exc}") from exc
        if not entries:
            raise ConfigError(f"registry {registry_path} has no entries")
        names = sorted(entries[0].allowed_tools)
    else:
        names = [name.strip() for name in allowlist.split(",") if name.strip()]
    if not names:
        raise ConfigError("allowlist must contain at least one tool name")

    if corpus_path:
        try:
            cases = load_corpus_jsonl(corpus_path)
        except ValueError as exc:
            raise ConfigError(f"invalid corpus {corpus_path}: {exc}") from exc
    else:
        try:
            cases = generate_corpus(seed, names, per_category)
        except ValueError as exc:  # the allowlist is too short for the quota
            raise ConfigError(str(exc)) from exc
    if corpus_out:
        dump_corpus_jsonl(cases, corpus_out)

    report = run_campaign(cases, seed=seed, allowlist=names)
    if as_json:
        click.echo(json.dumps(report.to_json(), indent=2, ensure_ascii=False))
    else:
        click.echo(report.render_text())
    sys.exit(EXIT_OK if report.passed else EXIT_VERDICT)


@cli.command("audit-verify")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report on stdout.")
def audit_verify(log_path: str, as_json: bool) -> None:
    """Check an audit log's hash chain. Exit 1 with the first bad index on tampering."""
    from .audit import AuditError, load_audit_jsonl, verify_chain
    try:
        records = load_audit_jsonl(log_path)
    except AuditError as exc:
        # An unparseable record is tampering too; report it as a failure.
        if as_json:
            click.echo(json.dumps({"ok": False, "error": str(exc)}))
        click.echo(f"chain violation: {exc}", err=True)
        sys.exit(EXIT_VERDICT)
    first_bad = verify_chain(records)
    if first_bad is None:
        if as_json:
            click.echo(json.dumps({"ok": True, "records": len(records)}))
        else:
            click.echo(f"ok ({len(records)} records)")
        sys.exit(EXIT_OK)
    if as_json:
        click.echo(json.dumps({"ok": False, "records": len(records), "firstBadIndex": first_bad}))
    click.echo(f"chain violation at record {first_bad}", err=True)
    sys.exit(EXIT_VERDICT)


@cli.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def serve(config_path: str) -> None:
    """Run the loopback attestation/tool stub described by CONFIG_PATH.

    Config JSON: {"sad": "path-or-null", "tools": {"name": result}, "host",
    "port", "mcpPath"}. Prints the bound URL, then serves until interrupted.
    An absent or null "sad" serves no attestation, and an absent or null
    "tools" serves no tools.
    """
    from .wellknown import StubServer, StubServerConfig
    spec = read_json(Path(config_path).read_bytes(), ConfigError, f"invalid server config {config_path}")
    if not isinstance(spec, dict):
        raise ConfigError("server config must be a JSON object")
    sad_bytes = None
    if spec.get("sad") is not None:
        if not isinstance(spec["sad"], str) or not spec["sad"]:
            raise ConfigError("server config 'sad' must be a string naming a file, or null")
        sad_path = Path(spec["sad"])
        if not sad_path.is_absolute():
            sad_path = Path(config_path).parent / sad_path
        try:
            sad_bytes = sad_path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read SAD {sad_path}: {exc}") from exc
    tools = spec.get("tools")
    if tools is None:
        tools = {}
    elif not isinstance(tools, dict):
        raise ConfigError("server config 'tools' must be an object, or null")
    # A key left out takes the StubServerConfig field's own default.
    port = spec.get("port", StubServerConfig.port)
    if isinstance(port, bool) or not isinstance(port, int):
        raise ConfigError("server config 'port' must be an integer")
    host = spec.get("host", StubServerConfig.host)
    mcp_path = spec.get("mcpPath", StubServerConfig.mcp_path)
    for name, value in (("host", host), ("mcpPath", mcp_path)):
        if not isinstance(value, str):
            raise ConfigError(f"server config {name!r} must be a string")
    config = StubServerConfig(sad_bytes=sad_bytes, tool_behaviors=tools, host=host, port=port, mcp_path=mcp_path)
    try:
        server = StubServer(config)
    except (OSError, OverflowError) as exc:  # OverflowError: port outside 0-65535
        raise ConfigError(f"cannot bind {config.host}:{config.port}: {exc}") from exc
    with server:  # server_close on the way out ends every kept-alive connection too
        try:
            click.echo(f"serving at {server.url}")
            server.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass


def main(argv: list[str] | None = None) -> None:
    """Console entry point with stable internal-error mapping. A file the
    operator named that cannot be read or written is a configuration error;
    the exception's text names the path."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(EXIT_CONFIG)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)


if __name__ == "__main__":
    main()
