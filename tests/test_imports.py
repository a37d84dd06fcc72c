"""Lints over src/punctline/: every imported name is used in its module,
and every module-level definition is used somewhere; and every Python
file of the project parses as Python 3.10, the oldest version it supports."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "punctline"
BENCH = ROOT / "bench"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _unused_imports(path):
    tree = _parse(path)
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


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_dead_definitions():
    """Every module-level function and class under src/punctline/ is named
    outside its own body: by a Name or Attribute elsewhere in the package,
    by an attribute in bench/run.py, or by a string in bench/tracing.py
    (which looks its spans up with getattr).

    The check is name-based: any name or attribute of the same spelling
    counts as a use, so a collision (a local variable, a method of another
    class) can hide a dead definition."""
    trees = {p.name: _parse(p) for p in sorted(SRC.glob("*.py"))}
    total = collections.Counter(
        name for tree in trees.values() for name in _referenced_names(tree)
    )
    outside = {
        node.attr for node in ast.walk(_parse(BENCH / "run.py"))
        if isinstance(node, ast.Attribute)
    }
    outside.update(
        node.value for node in ast.walk(_parse(BENCH / "tracing.py"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    dead = [
        "%s:%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in outside
        and total[node.name] == sum(1 for n in _referenced_names(node) if n == node.name)
    ]
    assert dead == []


def test_sources_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10, so no file may use
    newer syntax (except*, for one); ast checks the grammar under 3.11+."""
    paths = [p for d in (SRC, ROOT / "tests", BENCH) for p in sorted(d.rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
