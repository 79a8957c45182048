"""Golden digests of the seeded outputs, pinned across commits.

The determinism tests elsewhere compare two runs of the same build. These
digests were taken from an earlier build, so any change to corpus
generation, campaign replay, vector construction or their rendering shows
up here even when it is deterministic. None of them depends on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from atsa import build_vectors, keypair_from_seed
from atsa.cli import EXIT_OK, cli
from atsa.conformance import write_vector_fixtures


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    ("args", "digest"),
    [
        (["fuzz", "--seed", "1"], "74e810b3ecfefa81af42ca0687a86dc5c1f6912560d1f8f2cd947cf4a0e34461"),
        (["fuzz", "--seed", "1", "--json"], "e874f3d28591ef47f9c9279c608a8ecfed13bf7372f3e4e2150c9d77d050526a"),
        (["vectors"], "d3052952fb0168bcc2cc87ba97f50467197e0be191fa9f85bc886a0b9ffd583e"),
        (["vectors", "--json"], "edcaf89c6a64395bf7766ef9945c5544bc17bafe310aaff259e57f68a7b8fc34"),
    ],
)
def test_cli_stdout_matches_golden_digest(args, digest):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == EXIT_OK
    assert _sha256(result.stdout_bytes) == digest


def test_corpus_file_matches_golden_digest(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    result = CliRunner().invoke(
        cli, ["fuzz", "--seed", "7", "--per-category", "50", "--corpus-out", str(corpus_path)]
    )
    assert result.exit_code == EXIT_OK
    assert _sha256(corpus_path.read_bytes()) == "48d22334e77425945b36475b97a68e9327035e6370e30e0f4b39142b1bed6ce3"


def test_vector_fixtures_match_golden_digest(tmp_path):
    key = keypair_from_seed("S", bytes(range(32)))
    write_vector_fixtures(build_vectors(key), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == "921aa940ca4ce967501b0e872e4cbac25d6af7d594abb31ceaa9facf7656cf14"
