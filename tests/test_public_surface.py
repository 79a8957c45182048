"""Every name a module of ``src/atsa`` exports in ``__all__`` is used by
shipped code: ``src``, ``scripts`` or the ``perfbench`` harness. A helper
that only tests call belongs in the tests, so one cannot join the public
surface unnoticed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "atsa"
SHIPPED = sorted(
    path
    for root in (SRC, REPO / "scripts", REPO / "perfbench")
    for path in root.glob("*.py")
    if not path.name.startswith("test_")
)
# The modules whose ``__all__`` the package re-exports with ``import *``.
MODULES = [
    SRC / f"{node.module}.py"
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
]


def _exports(path: Path) -> list[str]:
    """The literal ``__all__`` list of one module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _references(path: Path) -> set[str]:
    """Identifiers one source file reads, imports by name or looks up as an
    attribute. Definitions, assignment targets and strings do not count."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


REFERENCED = set().union(*map(_references, SHIPPED))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_is_used_by_shipped_code(path):
    assert [name for name in _exports(path) if name not in REFERENCED] == []


def test_the_guard_reads_every_export_list():
    assert "sad.py" in {path.name for path in MODULES}
    assert all(_exports(path) for path in MODULES)
    assert {"sad.py", "cli.py"} <= {path.name for path in SHIPPED}
