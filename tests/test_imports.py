"""Every name a punctline module imports is used in that module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "punctline"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = {p.name: _unused_imports(p) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}
