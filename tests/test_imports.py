"""Import hygiene: every name a module imports is used or re-exported.

No linter ships with the package, so this walks the sources with the
standard library's ast module.
"""

import ast
import pathlib

import bmt

SRC = pathlib.Path(bmt.__file__).parent


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
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
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
