"""Every name a module of ``src/atsa`` exports in ``__all__`` is used by
shipped code: ``src``, ``scripts`` or the ``perfbench`` harness. A helper
that only tests call belongs in the tests, so one cannot join the public
surface unnoticed. Likewise every defaulted parameter and record field of
the package is set by some shipped call, and every public method or property
of a public class is read by shipped code, so a setting or a member only tests
use cannot join it either. Every public field of a public record, a dataclass
or a ``NamedTuple``, is read as an attribute by shipped code, so state that
nothing reads cannot join it."""

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
# The modules whose ``__all__`` the package re-exports, named in its ``_MODULES``.
MODULES = [
    SRC / f"{name}.py"
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["_MODULES"]
    for name in ast.literal_eval(node.value)
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
    assert len(MODULES) == 8 and "sad.py" in {path.name for path in MODULES}
    assert all(_exports(path) for path in MODULES)
    assert {"sad.py", "cli.py"} <= {path.name for path in SHIPPED}


def test_a_star_import_binds_every_export_and_every_module():
    # The package imports a module on first use; ``import *`` still binds every name.
    namespace: dict = {}
    exec("from atsa import *", namespace)
    expected = {name for path in MODULES for name in _exports(path)} | {path.stem for path in MODULES}
    assert set(namespace) - {"__builtins__"} == expected


# Every defaulted parameter of a public function, method or constructor in the
# package, and every record field with a default, is set by some call in
# shipped code, by keyword or by position. These are the exceptions.
UNSET_BY_DESIGN = {
    "cli.main(argv)": "the console entry point; tests drive it with an argument list",
    "conformance.build_vectors(signing_key)": "the golden fixtures pin a seeded key",
}


def _defaulted(args: ast.arguments, skip: int) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default, after ``skip``
    leading ones; a keyword-only parameter has no position."""
    positional = [*args.posonlyargs, *args.args]
    first_default = len(positional) - len(args.defaults)
    found = [(index - skip, arg.arg) for index, arg in enumerate(positional) if index >= first_default]
    found += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return found


def _decorators(node: ast.FunctionDef | ast.ClassDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.id if isinstance(target, ast.Name) else getattr(target, "attr", ""))
    return names


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a ``NamedTuple``, whose annotated fields are its constructor's."""
    bases = {base.id if isinstance(base, ast.Name) else getattr(base, "attr", "") for base in node.bases}
    return "dataclass" in _decorators(node) or "NamedTuple" in bases


def _in_init(field: ast.AnnAssign) -> bool:
    """Whether a dataclass field is a constructor parameter: not ``init=False``."""
    value = field.value
    return isinstance(field.target, ast.Name) and not (
        isinstance(value, ast.Call)
        and any(keyword.arg == "init" and isinstance(keyword.value, ast.Constant) and keyword.value.value is False
                for keyword in value.keywords)
    )


def _settings(path: Path) -> list[tuple[str, str, int | None, str]]:
    """(label, callee name, position, keyword) of every defaulted setting of
    one module's public functions, methods and constructors."""
    module = path.stem
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for position, name in _defaulted(node.args, 0):
                found.append((f"{module}.{node.name}({name})", node.name, position, name))
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_record(node):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign) and _in_init(stmt)]
            for position, field in enumerate(fields):
                if field.value is not None:
                    name = field.target.id
                    found.append((f"{module}.{node.name}({name})", node.name, position, name))
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or "property" in _decorators(method):
                continue
            if method.name == "__init__":
                label, callee = f"{module}.{node.name}", node.name
            elif not method.name.startswith("_"):
                label, callee = f"{module}.{node.name}.{method.name}", method.name
            else:
                continue
            skip = 0 if "staticmethod" in _decorators(method) else 1
            for position, name in _defaulted(method.args, skip):
                found.append((f"{label}({name})", callee, position, name))
    return found


def _calls(path: Path) -> list[tuple[str, int | None, set[str]]]:
    """(callee name, positional count, keywords) of every call in one file;
    ``cls(...)`` inside a class calls that class. The count is None when a
    ``*args`` may fill any position."""
    calls = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == "cls" and owner:
                    callee = owner
                starred = any(isinstance(arg, ast.Starred) for arg in child.args)
                keywords = {keyword.arg for keyword in child.keywords if keyword.arg}
                calls.append((callee, None if starred else len(child.args), keywords))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return calls


SETTINGS = [setting for path in sorted(SRC.glob("*.py")) for setting in _settings(path)]
CALLS = [call for path in SHIPPED for call in _calls(path)]


def _is_set(callee: str, position: int | None, name: str) -> bool:
    return any(
        called == callee
        and (name in keywords or (position is not None and (count is None or position < count)))
        for called, count, keywords in CALLS
    )


def test_every_defaulted_setting_is_set_by_shipped_code():
    unset = {label for label, callee, position, name in SETTINGS if not _is_set(callee, position, name)}
    assert unset == set(UNSET_BY_DESIGN)


def test_the_parameter_guard_reads_every_kind_of_setting():
    labels = {label for label, *_ in SETTINGS}
    assert {
        "admission.AdmissionGate.connect(skip_clearance_preflight)",  # keyword-only
        "audit.AuditLog(clock)",  # constructor
        "gateway.RegistryEntry(skip_clearance_preflight)",  # dataclass field
        "wellknown.StubServerConfig.for_document(tool_behaviors)",  # classmethod
        "cli.main(argv)",
    } <= labels


# Every public method and property of a public class in the package is read by
# shipped code, as an attribute or a name. These are the exceptions.
UNREAD_BY_DESIGN = {
    "trustroot.TrustRoot.key_ids": "acceptance criterion 05 reads the pinned signer ids",
}


def _members(path: Path) -> list[tuple[str, str]]:
    """(label, name) of every public method and property of one module's public classes."""
    return [
        (f"{path.stem}.{node.name}.{member.name}", member.name)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]


MEMBERS = [member for path in sorted(SRC.glob("*.py")) for member in _members(path)]


def test_every_public_member_is_read_by_shipped_code():
    assert {label for label, name in MEMBERS if name not in REFERENCED} == set(UNREAD_BY_DESIGN)


def test_the_member_guard_reads_methods_and_properties():
    labels = {label for label, _ in MEMBERS}
    assert {
        "trustroot.TrustRoot.key_ids",  # method
        "wellknown.StubServer.url",  # property
        "wellknown.StubServerConfig.for_document",  # classmethod
    } <= labels
    assert not any("._" in label for label in labels)  # private and dunder members are not read


# Every public field of a public record (dataclass or NamedTuple) in the package
# is read as an attribute by shipped code, so state that no decision or output reads cannot
# join it. A read in the declaring class's own ``__post_init__`` (which only
# normalizes or checks the value) does not count. These are the exceptions.
UNREAD_FIELDS_BY_DESIGN: dict[str, str] = {}


def _fields(path: Path) -> list[tuple[str, str]]:
    """(label, name) of every public field of one module's public records."""
    return [
        (f"{path.stem}.{node.name}.{field.target.id}", field.target.id)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_record(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and not field.target.id.startswith("_")
    ]


def _attribute_reads(path: Path) -> set[tuple[str, str | None, str | None]]:
    """(attribute, enclosing class, enclosing function) of every attribute
    one source file reads. Only the innermost class and function are kept."""
    reads = set()

    def visit(node: ast.AST, owner: str | None, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.add((child.attr, owner, function))
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner, child.name)
            else:
                visit(child, owner, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, None)
    return {(attr, f"{path.stem}.{owner}" if owner else None, function) for attr, owner, function in reads}


def _unread(fields: list[tuple[str, str]], reads: set[tuple[str, str | None, str | None]]) -> set[str]:
    """Labels of the fields no read counts for."""
    return {
        label
        for label, name in fields
        if not any(
            attr == name and (owner, function) != (label.rsplit(".", 1)[0], "__post_init__")
            for attr, owner, function in reads
        )
    }


FIELDS = [field for path in sorted(SRC.glob("*.py")) for field in _fields(path)]
ATTRIBUTE_READS = set().union(*map(_attribute_reads, SHIPPED))


def test_every_public_field_is_read_by_shipped_code():
    assert _unread(FIELDS, ATTRIBUTE_READS) == set(UNREAD_FIELDS_BY_DESIGN)


def test_the_field_guard_reads_public_dataclass_fields(tmp_path):
    labels = {label for label, _ in FIELDS}
    assert {
        "gateway.RegistryEntry.skip_clearance_preflight",  # defaulted field
        "lattice.ClassificationLevel.aliases",  # read by another class's __post_init__
        "wellknown.StubServerConfig.tool_behaviors",  # plain @dataclass
        "admission.Verdict.detail",  # NamedTuple
    } <= labels
    assert not any("._" in label for label in labels)  # private fields are not read

    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass\n"
        "import typing\n"
        "@dataclass(frozen=True)\n"
        "class Kept:\n"
        "    used: int\n"
        "    normalized_only: tuple = ()\n"
        "    _private: int = 0\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'normalized_only', tuple(self.normalized_only))\n"
        "class Other:\n"
        "    def __post_init__(self):\n"
        "        self.used\n"
        "class Pair(typing.NamedTuple):\n"
        "    read: int\n"
        "    unread: int = 0\n"
        "def first(pair):\n"
        "    return pair.read\n",
        encoding="utf-8",
    )
    fields = _fields(probe)
    assert [label for label, _ in fields] == [
        "probe.Kept.used", "probe.Kept.normalized_only", "probe.Pair.read", "probe.Pair.unread",
    ]
    assert _unread(fields, _attribute_reads(probe)) == {"probe.Kept.normalized_only", "probe.Pair.unread"}
