"""Import hygiene of the package modules, read with the standard library's ast.

Every module of src/countpred uses each name it imports (``__init__``
re-exports and names listed in ``__all__`` excepted), and every literal
``__all__`` entry is defined in its module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "countpred"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level or nested import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _literal_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [elt.value for elt in node.value.elts]
    return None


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level: defs, classes, assignments and imports."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "special.py", "regions.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    exported = set(_literal_all(tree) or ())
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree) and name not in exported}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _parse(path)
    missing = sorted(set(_literal_all(tree) or ()) - _defined(tree))
    assert not missing, f"{path.name} lists undefined names in __all__: {missing}"


def test_the_checks_catch_an_unused_import_and_an_undefined_export():
    tree = ast.parse("import functools\nimport math\n__all__ = ['gone', 'f']\n"
                     "def f():\n    return math.pi\n")
    assert set(_imported(tree)) - _used(tree) == {"functools"}
    assert set(_literal_all(tree)) - _defined(tree) == {"gone"}
