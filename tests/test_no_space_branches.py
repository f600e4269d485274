"""No module in `sdglab` tells a metric from a graph by its class.

Every space carries `matrix`, `mst` and `is_metric`, and a step that needs the
triangle inequality asks `is_metric`. So no module may pass `Metric` or
`WeightedGraph` to `isinstance`, `issubclass` or `type`, nor compare a
`type(...)` call with either class.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdglab"
SPACE_CLASSES = {"Metric", "WeightedGraph"}
TYPE_TESTS = {"isinstance", "issubclass", "type"}


def _is_type_test(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in TYPE_TESTS


def _class_branches(tree: ast.AST) -> list[int]:
    """Lines where a space class is an argument of a type test, or is
    compared with a `type(...)` call."""
    lines = []
    for node in ast.walk(tree):
        if _is_type_test(node):
            operands = node.args
        elif isinstance(node, ast.Compare) and any(map(_is_type_test, [node.left, *node.comparators])):
            operands = [node.left, *node.comparators]
        else:
            continue
        names = {n.id for arg in operands for n in ast.walk(arg) if isinstance(n, ast.Name)}
        if names & SPACE_CLASSES:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_branch_on_the_space_class(path):
    lines = _class_branches(ast.parse(path.read_text()))
    assert not lines, f"{path.name} branches on Metric/WeightedGraph at lines {lines}; read space.is_metric"


def test_the_check_sees_each_form():
    source = "isinstance(s, Metric)\nisinstance(s, (int, WeightedGraph))\ntype(s) is Metric\nisinstance(s, dict)\n"
    assert _class_branches(ast.parse(source)) == [1, 2, 3]
