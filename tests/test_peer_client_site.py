"""``admission.exchange`` is the one place in ``src/atsa`` that contacts a
peer, on a socket ``admission._connect`` opens. No module imports urllib's
opener machinery or ``http.client``, or names an ``http.client`` connection
class, and only ``admission`` imports ``socket`` and ``ssl``, which it needs
to open a connection and build its one TLS context, so a second outbound
path, with its own redirect, proxy, scheme or TLS rules, cannot appear
unnoticed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atsa"
FORBIDDEN_IMPORTS = {"urllib.request", "urllib.error", "http.client", "socket", "ssl"}
# Imports ``admission`` may make, and no other module.
PEER_CLIENT_IMPORTS = {"socket", "ssl"}
CONNECTION_CLASSES = {"HTTPConnection", "HTTPSConnection"}


def _imports_and_names(path: Path) -> tuple[set[str], set[str]]:
    """Absolute modules imported, and identifiers named, in one source file."""
    imports: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imports.add(node.module)
            imports.update(f"{node.module}.{alias.name}" for alias in node.names)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return imports, names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_exchange_contacts_a_peer(path):
    imports, names = _imports_and_names(path)
    allowed = PEER_CLIENT_IMPORTS if path.name == "admission.py" else set()
    assert imports & FORBIDDEN_IMPORTS == allowed
    assert names & CONNECTION_CLASSES == set()


def test_the_guard_sees_the_one_peer_client():
    assert "create_connection" in _imports_and_names(SRC / "admission.py")[1]
