"""Every top-level function and class in `sdglab` must have a user.

A name counts as used when it is referenced outside its own definition in the
package, in `scripts/` or in `bench/` (whose tracer names its targets in
strings). Re-exports in `__init__.py` and uses in `tests/` do not count: a
helper that only tests call is test code, and belongs in `tests/support.py`.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdglab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings, which are not uses."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                out.add(id(body[0].value))
    return out


def _references(path: Path) -> list[tuple[str, int]]:
    """(name, line) for every name, attribute and identifier inside a string."""
    tree = ast.parse(path.read_text())
    docstrings = _docstrings(tree)
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                refs.extend((word, node.lineno) for word in IDENTIFIER.findall(node.value))
    return refs


def _definitions() -> list:
    defs = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                args = (path, node.name, node.lineno, node.end_lineno)
                defs.append(pytest.param(*args, id=f"{path.stem}.{node.name}"))
    return defs


REFERENCES = {path: _references(path) for path in USERS}


@pytest.mark.parametrize("path, name, first, last", _definitions())
def test_top_level_name_is_used(path, name, first, last):
    for user, refs in REFERENCES.items():
        for ref, line in refs:
            if ref == name and (user != path or not first <= line <= last):
                return
    pytest.fail(f"{path.name}: {name} (lines {first}-{last}) is referenced nowhere outside itself")
