"""``scripts/mutants.py`` keeps a catalogue of source mutants and the tests that
must kill each. Running it copies the tree once per mutant; here, without
running any mutant, every entry is checked to edit text that occurs exactly
once in its file, and to name tests in files that exist."""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import mutants

    return mutants


def test_every_kept_mutant_edits_text_that_occurs_once(mutants):
    assert len(mutants.MUTANTS) >= 20
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert mutants.stale(ROOT) == []
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new and mutant.kills
        assert all((ROOT / node.partition("::")[0]).is_file() for node in mutant.kills)
