"""The CLI's audit sink: written only for a chain that verifies, closed on
every exit path."""

from __future__ import annotations

import gc
import json
import warnings

from click.testing import CliRunner

from atsa import SignerRecord, serialize_document, sign_document, trust_root_to_wire
from atsa.cli import EXIT_CONFIG, EXIT_OK, cli
from conftest import NOT_AFTER


def _run(args, audit_path) -> tuple[int, list[str]]:
    """Exit code of ``atsa ARGS`` and the ResourceWarnings naming
    ``audit_path`` raised once the run's garbage is collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        # The result's traceback keeps the command's frames alive; drop it.
        exit_code = CliRunner().invoke(cli, args).exit_code
        gc.collect()
    leaks = [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning) and str(audit_path) in str(warning.message)
    ]
    return exit_code, leaks


def test_verify_closes_the_audit_sink_on_every_exit_path(tmp_path, signer, baseline_doc):
    root_path = tmp_path / "root.json"
    root_path.write_text(
        json.dumps(
            trust_root_to_wire(
                [SignerRecord(signer.key_id, signer.public_key, ("PUBLIC", "RESTRICTED-PLUS"), NOT_AFTER)]
            )
        )
    )
    sad_path = tmp_path / "server.sad.json"
    sad_path.write_text(serialize_document(sign_document(baseline_doc, signer)))
    audit_path = tmp_path / "audit.jsonl"
    args = ["verify", str(sad_path), "--required", "restricted-plus",
            "--trust-root", str(root_path), "--audit", str(audit_path)]
    assert _run(args, audit_path) == (EXIT_OK, [])

    record = json.loads(audit_path.read_text())
    record["payload"]["level"] = "sci"
    tampered = json.dumps(record) + "\n"
    audit_path.write_text(tampered)
    assert _run(args, audit_path) == (EXIT_CONFIG, [])
    assert audit_path.read_text() == tampered
