"""``atsa.audit`` hashes and writes flat records with its own templates, so
neither it nor any ``atsa`` module it imports imports ``atsa.sad`` or
``cryptography``: verifying a log needs no signature code."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atsa"
FORBIDDEN = ("atsa.sad", "cryptography")


def _imports(source: str) -> set[str]:
    """Absolute names of the modules a source file in ``atsa`` imports, a
    relative import resolved against the package, each name imported from a
    module included as if it were a submodule."""
    imports: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["atsa" if node.level else "", node.module]))
            imports.add(module)
            imports.update(f"{module}.{alias.name}" for alias in node.names)
    return imports


def _reached_from(name: str) -> set[str]:
    """Every module ``atsa.<name>`` imports, and those the ``atsa`` modules among them import, in turn."""
    seen: set[str] = set()
    pending = [f"atsa.{name}"]
    while pending:
        path = SRC / f"{pending.pop().removeprefix('atsa.')}.py"
        for module in _imports(path.read_text(encoding="utf-8")) - seen:
            seen.add(module)
            if module.startswith("atsa.") and (SRC / f"{module.removeprefix('atsa.')}.py").is_file():
                pending.append(module)
    return seen


def _forbidden(modules: set[str]) -> set[str]:
    return {module for module in modules if any(module == name or module.startswith(name + ".") for name in FORBIDDEN)}


def test_audit_reaches_neither_sad_nor_cryptography():
    assert "atsa.trustroot" in _reached_from("audit")
    assert _forbidden(_reached_from("audit")) == set()


@pytest.mark.parametrize(
    "source",
    ["from . import sad", "from .sad import canonical_json_bytes", "from atsa import sad", "import atsa.sad",
     "from atsa.sad import canonical_json_bytes", "import cryptography",
     "from cryptography.hazmat.primitives.asymmetric import ed25519"],
)
def test_the_guard_sees_each_form_of_the_import(source):
    assert _forbidden(_imports(source))
