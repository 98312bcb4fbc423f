"""Import hygiene: every name a module imports is used or re-exported,
every top-level definition is used somewhere, and the edges between the
package's modules are pinned.

No linter ships with the package, so this walks the sources with the
standard library's ast module.
"""

import ast
import importlib
import pathlib

import bmt

SRC = pathlib.Path(bmt.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def _exported(node: ast.AST) -> set[str]:
    # The names an `__all__ = [...]` assignment lists.
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        else:
            exported |= _exported(node)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_every_import_is_used_or_exported():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = {}
    for path in paths:
        found = _unused_imports(ast.parse(path.read_text(), str(path)))
        if found:
            unused[path.name] = found
    assert unused == {}


def _defined(stmt: ast.stmt) -> list[str]:
    # The functions, classes and constants a top-level statement defines,
    # less what the interpreter reads: dunder assignments such as __all__,
    # and PEP 562's module __getattr__ and __dir__.
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [] if stmt.name in ("__getattr__", "__dir__") else [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def _references(node: ast.AST) -> set[str]:
    # Names read, names imported and names in __all__.
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            refs |= {alias.name for alias in sub.names}
        else:
            refs |= _exported(sub)
    return refs


def test_every_definition_is_used_exported_or_benchmarked():
    # A definition counts as used when a top-level statement other than
    # its own reads it, so a function that only calls itself is dead.
    # perfbench counts through what it imports from bmt (gf2.parity).
    stmts = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]
    refs = [_references(stmt) for _, stmt in stmts]
    benched = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("bmt"):
                benched |= {alias.name for alias in node.names}
    dead = [
        f"{name} line {stmt.lineno}: {d}"
        for i, (name, stmt) in enumerate(stmts)
        for d in _defined(stmt)
        if d not in benched and not any(d in r for j, r in enumerate(refs) if j != i)
    ]
    assert dead == []


def test_every_traced_name_resolves():
    # perfbench's tracer wraps each "module.function" it lists; a name that
    # no longer resolves breaks the benchmark's trace, which tier-1 never
    # runs.
    names = []
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "AGGREGATED")
            for t in node.targets
        ):
            names += [elt.value for elt in node.value.elts]
    assert "gf2.canonical_form_bits" in names and "gf2.rref" in names
    missing = []
    for name in names:
        mod, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"bmt.{mod}"), attr, None)):
            missing.append(name)
    assert missing == []


# The modules each bmt module imports from, so that a new edge between
# modules shows up as an edit here.  `detect` builds no shape from
# `construct`.  `__init__` loads its modules by name, through importlib.
MODULE_IMPORTS = {
    "__init__": frozenset(),
    "census": frozenset({"construct", "decompose", "detect", "errors", "gf2", "matroid"}),
    "cli": frozenset(
        {"census", "construct", "decompose", "detect", "errors", "matroid", "selftest"}
    ),
    "construct": frozenset({"errors", "gf2", "matroid"}),
    "decompose": frozenset({"construct", "detect", "errors", "gf2", "matroid"}),
    "detect": frozenset({"errors", "gf2", "matroid"}),
    "errors": frozenset(),
    "gf2": frozenset(),
    "matroid": frozenset({"errors", "gf2"}),
    "selftest": frozenset(
        {"census", "construct", "decompose", "detect", "errors", "gf2", "matroid"}
    ),
}


def test_module_imports():
    got = {}
    for path in sorted(SRC.glob("*.py")):
        mods = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                mods |= {node.module} if node.module else {a.name for a in node.names}
        got[path.stem] = frozenset(mods)
    assert got == MODULE_IMPORTS


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares Python 3.10 and later.  This catches grammar
    # newer than 3.10 (such as `except*`), not library behaviour that
    # changed between versions.
    tests = pathlib.Path(__file__).parent
    paths = [p for d in (SRC, tests, PERFBENCH) for p in sorted(d.glob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
