"""``src/atsa`` keeps one memo of attestation work: ``admission._parsed``, a
``functools.lru_cache`` which holds, by the fetched bytes, each document's parse
outcome and its signature result per public key, under one size bound and one
body bound. A second memo would have its own key and bounds, and a warm cache
could then answer otherwise than a cold one where no test clears it, so one
cannot appear unnoticed. The exceptions are listed with their reasons."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "atsa"
CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}

MEMOS = {
    "admission._parsed": "the document memo",
}
CACHED_ELSEWHERE_BY_DESIGN = {
    "admission._tls_context": "one TLS client context per CA bundle setting, not attestation work",
    "admission.split_url": "a pure function of one URL string, not attestation work",
    "conformance.campaign_setup": "the keys and trust root one fuzz seed fixes, not attestation work",
    "wellknown._http_date": "the stub's Date field for the current second, not attestation work",
}


def _name(node: ast.expr) -> str | None:
    """The name a decorator or a callee is spelled with, less its module and its call."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_empty_mapping(value: ast.expr | None) -> bool:
    """``{}``, ``dict()``, ``OrderedDict()`` or ``defaultdict(factory)``: a mapping that starts empty."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if not isinstance(value, ast.Call) or value.keywords:
        return False
    name = _name(value.func)
    return (name in ("dict", "OrderedDict") and not value.args) or (name == "defaultdict" and len(value.args) <= 1)


def _caches(source: str, module: str) -> set[str]:
    """``module.name`` for each cached function or method, and each module-level mapping that starts empty."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(_name(decorator) in CACHE_DECORATORS for decorator in child.decorator_list):
                    found.add(f"{scope}.{child.name}")
                visit(child, f"{scope}.{child.name}")

    tree = ast.parse(source)
    visit(tree, module)
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        if _is_empty_mapping(statement.value):
            found.update(f"{module}.{target.id}" for target in targets if isinstance(target, ast.Name))
    return found


def test_attestation_work_has_one_memo():
    found = set().union(*(_caches(path.read_text(encoding="utf-8"), path.stem) for path in SRC.glob("*.py")))
    assert found == set(MEMOS) | set(CACHED_ELSEWHERE_BY_DESIGN)


def test_the_guard_sees_every_way_to_cache():
    stray = (
        "import functools\nfrom functools import cache, lru_cache\nfrom collections import OrderedDict, defaultdict\n"
        "_A = {}\n_B: dict[str, int] = dict()\n_C = OrderedDict()\n_D = defaultdict(list)\n"
        "TABLE = {'a': 1}\nPAIRS = dict(a=1)\n"
        "@functools.lru_cache(maxsize=8)\ndef f(x):\n    return x\n"
        "@cache\ndef g(x):\n    return x\n"
        "@lru_cache\ndef h(x):\n    return x\n"
        "class K:\n    @functools.cached_property\n    def p(self):\n        return 1\n"
    )
    assert _caches(stray, "sad") == {"sad._A", "sad._B", "sad._C", "sad._D", "sad.f", "sad.g", "sad.h", "sad.K.p"}
