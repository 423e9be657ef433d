"""A :class:`~pmkit.subalgebra.ClosureResult` is built only where the
closure runs, in :mod:`pmkit.subalgebra`: every other module takes the
result the closure returns and never wraps its members again."""

import ast
from pathlib import Path

import pmkit

ALLOWED = {"subalgebra.py"}


def result_builds(source):
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "ClosureResult"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "ClosureResult"
        )
    ]


def test_closure_results_are_built_only_by_the_closure():
    package = Path(pmkit.__file__).parent
    files = sorted(package.glob("*.py"))
    assert len(files) >= 10
    found = {
        path.name: lines
        for path in files
        if path.name not in ALLOWED and (lines := result_builds(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_guard_sees_result_builds():
    source = "ClosureResult(m, 1, 2)\nsubalgebra.ClosureResult(m, 0, 0)\nClosureResult\n"
    assert result_builds(source) == [1, 2]
