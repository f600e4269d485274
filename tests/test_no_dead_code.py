"""Every top-level function and class in `sdglab`, and every non-dunder method
and property of a top-level class, must have a user.

A name counts as used when it is referenced outside its own definition in the
package, in `scripts/` or in `bench/` (whose tracer names its targets in
strings). A method or property counts only attribute references (`x.name`) and
dotted names in strings (`metric.Metric.euclidean`), since a bare name is
never a call of it. Re-exports in `__init__.py` and uses in `tests/` do not
count: a helper that only tests call is test code, and belongs in
`tests/support.py`.

Every top-level function and class of `tests/support.py` and
`tests/strategies.py` must likewise be referenced outside its own definition
from a file in `tests/`, so an oracle outlives no test that reads it.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdglab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
TESTS = ROOT / "tests"
TEST_HELPERS = [TESTS / "support.py", TESTS / "strategies.py"]
IDENTIFIER = re.compile(r"(\.?)([A-Za-z_]\w*)")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings, which are not uses."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                out.add(id(body[0].value))
    return out


def _references(path: Path) -> list[tuple[str, int, bool]]:
    """(name, line, dotted) for every name, attribute and identifier inside a
    string; dotted marks an attribute or a string identifier after a dot."""
    tree = ast.parse(path.read_text())
    docstrings = _docstrings(tree)
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                refs.extend((word, node.lineno, bool(dot)) for dot, word in IDENTIFIER.findall(node.value))
    return refs


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(modules: list[Path], members: bool) -> list:
    """Top-level functions and classes, or (members=True) the non-dunder
    methods and properties of top-level classes."""
    defs = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not members and isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                args = (path, node.name, node.lineno, node.end_lineno)
                defs.append(pytest.param(*args, id=f"{path.stem}.{node.name}"))
            elif members and isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                        args = (path, item.name, item.lineno, item.end_lineno)
                        defs.append(pytest.param(*args, id=f"{path.stem}.{node.name}.{item.name}"))
    return defs


REFERENCES = {path: _references(path) for path in USERS}
TEST_REFERENCES = {path: _references(path) for path in sorted(TESTS.glob("*.py"))}


def _used(path: Path, name: str, first: int, last: int, dotted_only: bool, references=REFERENCES) -> bool:
    for user, refs in references.items():
        for ref, line, dotted in refs:
            if ref == name and (dotted or not dotted_only) and (user != path or not first <= line <= last):
                return True
    return False


@pytest.mark.parametrize("path, name, first, last", _definitions(MODULES, members=False))
def test_top_level_name_is_used(path, name, first, last):
    if not _used(path, name, first, last, dotted_only=False):
        pytest.fail(f"{path.name}: {name} (lines {first}-{last}) is referenced nowhere outside itself")


@pytest.mark.parametrize("path, name, first, last", _definitions(MODULES, members=True))
def test_method_is_used(path, name, first, last):
    if not _used(path, name, first, last, dotted_only=True):
        pytest.fail(f"{path.name}: method {name} (lines {first}-{last}) is referenced nowhere outside itself")


@pytest.mark.parametrize("path, name, first, last", _definitions(TEST_HELPERS, members=False))
def test_test_helper_is_used(path, name, first, last):
    if not _used(path, name, first, last, dotted_only=False, references=TEST_REFERENCES):
        pytest.fail(f"{path.name}: {name} (lines {first}-{last}) is referenced nowhere in tests/ outside itself")
