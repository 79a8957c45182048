"""Command-line surface: exit codes, stream discipline, env fallbacks."""

from __future__ import annotations

import json
import os
import signal
import stat
import subprocess
import sys
import time
import urllib.request

import pytest
from click.testing import CliRunner

from atsa import (
    AttestationDocument,
    generate_keypair,
    load_audit_jsonl,
    serialize_document,
    serialize_trust_root,
    sign_document,
    verify_chain,
)
from atsa.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, EXIT_VERDICT, cli, main
from atsa.trustroot import SignerRecord
from conftest import NOT_AFTER


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path, signer, baseline_doc):
    root_path = tmp_path / "root.json"
    record = SignerRecord(
        key_id=signer.key_id,
        public_key=signer.public_key,
        approved_clearance=("PUBLIC", "INTERNAL", "CONFIDENTIAL", "RESTRICTED", "RESTRICTED-PLUS"),
        not_after=NOT_AFTER,
    )
    root_path.write_text(serialize_trust_root([record]))
    signed = sign_document(baseline_doc, signer)
    sad_path = tmp_path / "server.sad.json"
    sad_path.write_text(serialize_document(signed))
    unsigned_path = tmp_path / "unsigned.sad.json"
    unsigned_path.write_text(serialize_document(baseline_doc))
    return {
        "dir": tmp_path,
        "root": str(root_path),
        "sad": str(sad_path),
        "unsigned": str(unsigned_path),
    }


def test_keygen_writes_keypair_with_tight_mode(runner, tmp_path):
    out = tmp_path / "signer.key"
    result = runner.invoke(cli, ["keygen", "--out", str(out), "--key-id", "release-1"])
    assert result.exit_code == EXIT_OK
    assert out.exists()
    assert (tmp_path / "signer.key.pub").exists()
    mode = stat.S_IMODE(os.stat(out).st_mode)
    assert mode == 0o600
    private = json.loads(out.read_text())
    assert private["keyId"] == "release-1"
    assert "privateKey" in private


def test_keygen_refuses_to_overwrite(runner, tmp_path):
    out = tmp_path / "signer.key"
    assert runner.invoke(cli, ["keygen", "--out", str(out)]).exit_code == EXIT_OK
    again = runner.invoke(cli, ["keygen", "--out", str(out)])
    assert again.exit_code == EXIT_CONFIG


def test_sign_then_verify_file_admit(runner, workspace, tmp_path):
    key_path = tmp_path / "k.key"
    assert runner.invoke(cli, ["keygen", "--out", str(key_path), "--key-id", "k"]).exit_code == EXIT_OK
    pub = json.loads((tmp_path / "k.key.pub").read_text())
    root_path = tmp_path / "newroot.json"
    root_path.write_text(
        json.dumps(
            {
                "signers": [
                    {
                        "keyId": "k",
                        "publicKey": pub["publicKey"],
                        "approvedClearance": ["public", "internal", "confidential",
                                              "restricted", "restricted-plus"],
                        "notAfter": "2027-01-01T00:00:00Z",
                    }
                ]
            }
        )
    )
    signed_out = tmp_path / "resigned.json"
    result = runner.invoke(
        cli, ["sign", workspace["unsigned"], "--key", str(key_path), "--out", str(signed_out)]
    )
    assert result.exit_code == EXIT_OK
    verify = runner.invoke(
        cli,
        ["verify", str(signed_out), "--required", "restricted-plus",
         "--trust-root", str(root_path), "--flavor", "enclaved"],
    )
    assert verify.exit_code == EXIT_OK
    assert "ADMIT" in verify.stdout
    assert "signerKeyId=k" in verify.stdout


def test_sign_in_place_is_the_default(runner, workspace, tmp_path):
    key_path = tmp_path / "k.key"
    runner.invoke(cli, ["keygen", "--out", str(key_path), "--key-id", "k"])
    with open(workspace["unsigned"]) as handle:
        before = handle.read()
    result = runner.invoke(cli, ["sign", workspace["unsigned"], "--key", str(key_path)])
    assert result.exit_code == EXIT_OK
    with open(workspace["unsigned"]) as handle:
        after = handle.read()
    assert before != after
    assert json.loads(after)["signerKeyId"] == "k"


def test_sign_rejects_malformed_document(runner, tmp_path):
    key_path = tmp_path / "k.key"
    runner.invoke(cli, ["keygen", "--out", str(key_path)])
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    result = runner.invoke(cli, ["sign", str(bad), "--key", str(key_path)])
    assert result.exit_code == EXIT_CONFIG


def test_verify_file_deny_prints_reason_on_stderr(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", workspace["unsigned"], "--required", "restricted-plus",
         "--trust-root", workspace["root"], "--flavor", "enclaved"],
    )
    assert result.exit_code == EXIT_VERDICT
    assert result.stderr.splitlines() == ["unsigned"]


def test_verify_origin_controls_host_binding(runner, workspace, tmp_path, baseline_doc, signer):
    from dataclasses import replace

    bound = sign_document(replace(baseline_doc, net_allowed_hosts=("a.example",)), signer)
    sad = tmp_path / "bound.json"
    sad.write_text(serialize_document(bound))
    base = ["verify", str(sad), "--required", "restricted-plus",
            "--trust-root", workspace["root"], "--flavor", "enclaved"]
    denied = runner.invoke(cli, base + ["--origin", "b.example"])
    assert denied.exit_code == EXIT_VERDICT
    assert denied.stderr.splitlines() == ["host_not_bound"]
    admitted = runner.invoke(cli, base + ["--origin", "a.example"])
    assert admitted.exit_code == EXIT_OK


def test_verify_json_report(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", workspace["sad"], "--required", "restricted-plus",
         "--trust-root", workspace["root"], "--json"],
    )
    assert result.exit_code == EXIT_OK
    report = json.loads(result.stdout)
    assert report["status"] == "ok"
    assert report["allowed"] is True
    assert report["clearance"] == "restricted-plus"


def test_verify_open_flavor_warns_with_exit_1(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", workspace["unsigned"], "--required", "restricted-plus",
         "--trust-root", workspace["root"], "--flavor", "open", "--json"],
    )
    assert result.exit_code == EXIT_VERDICT
    report = json.loads(result.stdout)
    assert report["status"] == "warn"
    assert report["flavorNote"] == "open flavor: warn-only"


def test_verify_unknown_required_level_is_config_error(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", workspace["sad"], "--required", "galactic",
         "--trust-root", workspace["root"]],
    )
    assert result.exit_code == EXIT_CONFIG


def test_verify_unknown_scheme_is_config_error(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", workspace["sad"], "--required", "restricted-plus",
         "--trust-root", workspace["root"], "--scheme", "imaginary"],
    )
    assert result.exit_code == EXIT_CONFIG


def test_verify_missing_target_is_config_error(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", "no-such-file.json", "--required", "restricted-plus",
         "--trust-root", workspace["root"]],
    )
    assert result.exit_code == EXIT_CONFIG


def test_verify_env_fallbacks(runner, workspace):
    result = runner.invoke(
        cli,
        ["verify", workspace["sad"], "--required", "restricted-plus"],
        env={
            "ATSA_TRUST_ROOT": workspace["root"],
            "ATSA_SCHEME": "default",
            "ATSA_FLAVOR": "enclaved",
        },
    )
    assert result.exit_code == EXIT_OK


def test_verify_audit_log_accumulates_and_verifies(runner, workspace, tmp_path):
    audit_path = tmp_path / "audit.jsonl"
    for target, _code in ((workspace["sad"], 0), (workspace["unsigned"], 1)):
        runner.invoke(
            cli,
            ["verify", target, "--required", "restricted-plus",
             "--trust-root", workspace["root"], "--flavor", "enclaved"],
            env={"ATSA_AUDIT_LOG": str(audit_path)},
        )
    records = load_audit_jsonl(audit_path)
    assert [r.event for r in records] == ["mcp.connect.allow", "mcp.connect.deny"]
    check = runner.invoke(cli, ["audit-verify", str(audit_path)])
    assert check.exit_code == EXIT_OK
    assert check.stdout.strip() == "ok (2 records)"


def test_verify_url_against_live_stub(runner, workspace, signed_doc):
    from atsa import StubServerConfig, serve

    stub = serve(StubServerConfig.for_document(signed_doc, tool_behaviors={}))
    try:
        result = runner.invoke(
            cli,
            ["verify", stub.url + "/mcp", "--required", "restricted-plus",
             "--trust-root", workspace["root"], "--flavor", "enclaved"],
        )
        assert result.exit_code == EXIT_OK, result.output
    finally:
        stub.shutdown()


def test_vectors_command(runner, tmp_path):
    result = runner.invoke(cli, ["vectors"])
    assert result.exit_code == EXIT_OK
    assert "11/11 pass" in result.stdout
    assert result.stdout.count("PASS") == 11

    out_dir = tmp_path / "fixtures"
    result = runner.invoke(cli, ["vectors", "--out", str(out_dir), "--json"])
    assert result.exit_code == EXIT_OK
    report = json.loads(result.stdout)
    assert report["summary"] == "11/11 pass"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["vectors"]) == 11


def test_fuzz_is_deterministic_per_seed(runner):
    args = ["fuzz", "--seed", "5", "--per-category", "3"]
    first = runner.invoke(cli, args)
    second = runner.invoke(cli, args)
    assert first.exit_code == EXIT_OK
    assert first.stdout == second.stdout
    other = runner.invoke(cli, ["fuzz", "--seed", "6", "--per-category", "3"])
    assert other.stdout != first.stdout
    assert "result: PASS" in first.stdout


def test_fuzz_corpus_write_and_replay(runner, tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    first = runner.invoke(
        cli,
        ["fuzz", "--seed", "2", "--per-category", "3", "--corpus-out", str(corpus_path)],
    )
    assert first.exit_code == EXIT_OK
    assert corpus_path.exists()
    replay = runner.invoke(
        cli, ["fuzz", "--seed", "2", "--per-category", "3", "--corpus", str(corpus_path)]
    )
    assert replay.exit_code == EXIT_OK
    assert replay.stdout == first.stdout


def test_fuzz_fails_on_sabotaged_corpus(runner, tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    runner.invoke(
        cli, ["fuzz", "--seed", "3", "--per-category", "2", "--corpus-out", str(corpus_path)]
    )
    with open(corpus_path, "a") as handle:
        handle.write(
            json.dumps(
                {"kind": "tool_name", "category": "near_miss",
                 "input": "list_labels", "expectation": "tool_not_admitted"}
            )
            + "\n"
        )
    result = runner.invoke(
        cli, ["fuzz", "--seed", "3", "--per-category", "2", "--corpus", str(corpus_path)]
    )
    assert result.exit_code == EXIT_VERDICT
    assert "result: FAIL" in result.stdout


def test_fuzz_json_report(runner):
    result = runner.invoke(cli, ["fuzz", "--seed", "4", "--per-category", "2", "--json"])
    assert result.exit_code == EXIT_OK
    report = json.loads(result.stdout)
    assert report["seed"] == 4
    assert report["networkWrites"] == 0


def test_fuzz_allowlist_from_registry_file(runner, tmp_path):
    registry = tmp_path / "registry.json"
    registry.write_text(
        json.dumps(
            [
                {
                    "endpoint": "https://x.example/mcp",
                    "bridgeId": "b",
                    "requiredClearance": "restricted-plus",
                    "allowedTools": ["alpha_tool", "beta_tool"],
                }
            ]
        )
    )
    result = runner.invoke(
        cli, ["fuzz", "--per-category", "2", "--registry", str(registry)]
    )
    assert result.exit_code == EXIT_OK
    assert "alpha_tool" in result.stdout


def test_audit_verify_detects_tampering(runner, workspace, tmp_path):
    audit_path = tmp_path / "audit.jsonl"
    for _ in range(3):
        runner.invoke(
            cli,
            ["verify", workspace["sad"], "--required", "restricted-plus",
             "--trust-root", workspace["root"], "--audit", str(audit_path)],
        )
    lines = audit_path.read_text().splitlines()
    record = json.loads(lines[1])
    record["payload"]["level"] = "sci"
    lines[1] = json.dumps(record)
    audit_path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(cli, ["audit-verify", str(audit_path)])
    assert result.exit_code == EXIT_VERDICT
    assert "chain violation at record 1" in result.stderr


def test_verify_refuses_to_append_to_tampered_audit_log(runner, workspace, tmp_path):
    audit_path = tmp_path / "audit.jsonl"
    args = ["verify", workspace["sad"], "--required", "restricted-plus",
            "--trust-root", workspace["root"], "--audit", str(audit_path)]
    assert runner.invoke(cli, args).exit_code == EXIT_OK
    lines = audit_path.read_text().splitlines()
    record = json.loads(lines[0])
    record["payload"]["level"] = "sci"
    audit_path.write_text(json.dumps(record) + "\n")
    result = runner.invoke(cli, args)
    assert result.exit_code == EXIT_CONFIG


def test_audit_verify_treats_garbage_as_violation(runner, tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("definitely not json\n")
    result = runner.invoke(cli, ["audit-verify", str(path)])
    assert result.exit_code == EXIT_VERDICT
    assert "chain violation" in result.stderr


def test_lock_flag_freezes_trust_root(runner, workspace):
    # locking is per-process; the command still verifies normally
    result = runner.invoke(
        cli,
        ["verify", workspace["sad"], "--required", "restricted-plus",
         "--trust-root", workspace["root"], "--lock"],
    )
    assert result.exit_code == EXIT_OK


def test_main_maps_internal_errors_to_exit_3(monkeypatch, capsys):
    import atsa.cli as cli_module

    def explode():
        raise RuntimeError("wired wrong")

    monkeypatch.setattr(cli_module, "build_vectors", explode)
    with pytest.raises(SystemExit) as exc_info:
        main(["vectors"])
    assert exc_info.value.code == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_main_propagates_config_exit(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "nope.json", "--required", "x", "--trust-root", str(tmp_path / "absent.json")])
    assert exc_info.value.code == EXIT_CONFIG


def _main_exit_code(args):
    with pytest.raises(SystemExit) as exc_info:
        main(args)
    return exc_info.value.code


def test_fuzz_registry_entry_without_bridge_id_is_config_error(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(
        json.dumps(
            [{"endpoint": "https://x.example/mcp", "requiredClearance": "restricted-plus",
              "allowedTools": ["alpha_tool"]}]
        )
    )
    assert _main_exit_code(["fuzz", "--per-category", "1", "--registry", str(registry)]) == EXIT_CONFIG
    assert "bridgeId" in capsys.readouterr().err
    registry.write_bytes(b"\xff[]")
    assert _main_exit_code(["fuzz", "--per-category", "1", "--registry", str(registry)]) == EXIT_CONFIG


def test_fuzz_corpus_line_that_is_not_an_object_is_config_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("[1,2]\n")
    assert _main_exit_code(["fuzz", "--corpus", str(corpus)]) == EXIT_CONFIG
    assert "line 0: a corpus case must be a JSON object" in capsys.readouterr().err


def test_fuzz_per_category_zero_is_usage_error(capsys):
    assert _main_exit_code(["fuzz", "--per-category", "0"]) == EXIT_CONFIG
    assert "--per-category" in capsys.readouterr().err


def test_serve_non_integer_port_is_config_error(tmp_path, capsys):
    config_path = tmp_path / "serve.json"
    config_path.write_text(json.dumps({"sad": None, "port": "abc"}))
    assert _main_exit_code(["serve", str(config_path)]) == EXIT_CONFIG
    assert "'port' must be an integer" in capsys.readouterr().err
    config_path.write_text(json.dumps({"sad": None, "port": 70000}))
    assert _main_exit_code(["serve", str(config_path)]) == EXIT_CONFIG
    assert "cannot bind 127.0.0.1:70000" in capsys.readouterr().err


def test_serve_subprocess_end_to_end(tmp_path, signed_doc):
    sad_path = tmp_path / "doc.json"
    sad_path.write_text(serialize_document(signed_doc))
    config_path = tmp_path / "serve.json"
    config_path.write_text(
        json.dumps(
            {"sad": "doc.json", "tools": {"list_labels": {"labels": []}},
             "host": "127.0.0.1", "port": 0}
        )
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "atsa.cli", "serve", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("serving at http://127.0.0.1:")
        url = line.split("serving at ", 1)[1]
        with urllib.request.urlopen(url + "/.well-known/mcp-attestation", timeout=5) as resp:
            assert resp.read() == sad_path.read_bytes()
        req = urllib.request.Request(
            url + "/mcp",
            data=json.dumps(
                {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                 "params": {"name": "list_labels", "arguments": {}}}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert json.loads(resp.read())["result"] == {"labels": []}
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == 0
