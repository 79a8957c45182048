"""Each outside format has one reader in ``src/atsa``. JSON text is decoded only
by ``_json.read_json``, which takes UTF-8 alone (RFC 8259, section 8.1) and
turns deep nesting into the caller's error. URLs are split only by
``admission.split_url``, which refuses userinfo (RFC 9110, section 4.2.4). A
second reader would decide again, and perhaps otherwise, which input fails and
how, so one cannot appear unnoticed. The exceptions are listed with their
reasons."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "atsa"
JSON_DECODERS = {"load", "loads", "JSONDecoder"}
URL_SPLITTERS = {"urlsplit", "urlparse"}

READERS = {
    "_json: JSONDecoder": "the decoder read_json scans with, built once with json.loads' defaults",
    "_json._decode: loads": "the JSON reader",
    "admission.split_url: urlsplit": "the URL reader",
}
READ_ELSEWHERE_BY_DESIGN = {
    "conformance._forge_malformed: loads": "re-parses a document the program serialized a line before, to forge a variant",
}


def _reads(source: str, module: str) -> set[str]:
    """``module.function: name`` for each use of a JSON decoder or a URL splitter in one source."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            names: set[str] = set()
            if isinstance(child, ast.Attribute):
                on_json = isinstance(child.value, ast.Name) and child.value.id == "json"
                names = {child.attr} & (URL_SPLITTERS | (JSON_DECODERS if on_json else set()))
            elif isinstance(child, ast.ImportFrom) and child.module in ("json", "urllib.parse"):
                names = {alias.name for alias in child.names} & (JSON_DECODERS | URL_SPLITTERS)
            found.update(f"{scope}: {name}" for name in names)
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_each_outside_format_has_one_reader():
    found = set().union(*(_reads(path.read_text(encoding="utf-8"), path.stem) for path in SRC.glob("*.py")))
    assert found == set(READERS) | set(READ_ELSEWHERE_BY_DESIGN)


def test_the_guard_sees_every_way_to_reach_a_reader():
    stray = "import json, urllib.parse\nfrom json import loads\ndef f(x):\n    return json.load(x), urllib.parse.urlparse(x)\n"
    assert _reads(stray, "lattice") == {"lattice: loads", "lattice.f: load", "lattice.f: urlparse"}
