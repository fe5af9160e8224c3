"""Every definition under src/mechdock is used somewhere in src/, and
every module under src/ and tests/ uses each name it imports.

A module-level function, class or constant, or a method, whose name is
never loaded (read as a name or attribute, or imported) in the package
is reachable only from tests, or from nothing. Dunder methods are called
by the interpreter and are exempt. The package's own __init__.py only
re-exports names, so its imports are not counted as uses. The allowlist
names the deliberate cross-check oracles, which the tests compare the
program against. The import check applies to each module on its own and
skips the same __init__.py.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mechdock"
REEXPORTS = SRC / "__init__.py"

ALLOWED = {
    "compute_b_closed": "closed form the tests check the b_k recurrence against",
    "poly_root": "bisection the tests use to derive the parameter constants",
    "SINGLE_BLOCK_CUBIC": "polynomial whose root is the single-block scale factor",
    "SQUARE3_CUBIC": "polynomial whose root gives the 3x3 defaults",
    "GOLDEN_QUADRATIC": "reference polynomial for the bisection oracle",
    "__version__": "package metadata read by tools, not by the package",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _loaded(trees):
    return {
        name
        for path, tree in trees.items()
        if path != REEXPORTS
        for name in _loads(tree)
    }


def _parse_src():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def test_no_definition_is_unused_in_src():
    trees = _parse_src()
    loaded = _loaded(trees)
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in loaded and name not in ALLOWED
    ]
    assert unused == []


def test_allowlist_names_only_unused_definitions():
    trees = _parse_src()
    loaded = _loaded(trees)
    defined = {name for tree in trees.values() for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & loaded


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_imported_name_is_used():
    paths = sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
    unused = []
    for path in paths:
        if path == REEXPORTS:
            continue
        tree = ast.parse(path.read_text())
        names = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(TESTS.parent)}:{line} {name}"
            for name, line in _imported(tree)
            if name not in names
        ]
    assert unused == []
