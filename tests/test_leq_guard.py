"""Inside the library, order questions are answered on the mask rows; only
the morphism search and its map validator still ask ``Poset.leq`` point by
point."""

import ast
from pathlib import Path

import pmkit

ALLOWED = {"morphism.py"}


def leq_calls(source):
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "leq"
    ]


def test_leq_is_called_only_by_the_morphism_search():
    package = Path(pmkit.__file__).parent
    files = sorted(package.glob("*.py"))
    assert len(files) >= 10
    found = {
        path.name: lines
        for path in files
        if path.name not in ALLOWED and (lines := leq_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_guard_sees_leq_calls():
    assert leq_calls("p.leq(0, 1)\nself.order.leq(c, d)\nleq(0, 1)\n") == [1, 2]
