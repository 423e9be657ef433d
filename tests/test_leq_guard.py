"""Inside the library, order questions are answered on the mask rows; only
the map validator ``morphism.check_pm_morphism`` still asks ``Poset.leq``
point by point.  The search narrows mask domains instead, so no search code
may bring back a point-by-point scan."""

import ast
from pathlib import Path

import pmkit

#: The functions allowed to call ``.leq(``, by file.
ALLOWED = {"morphism.py": {"check_pm_morphism"}}


def leq_calls(source, allowed=frozenset()):
    """Lines of the ``.leq(`` calls in ``source`` outside the functions
    named in ``allowed``."""
    tree = ast.parse(source)
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in allowed
        for inner in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "leq"
        and id(node) not in exempt
    ]


def test_leq_is_called_only_by_the_map_validator():
    package = Path(pmkit.__file__).parent
    files = sorted(package.glob("*.py"))
    assert len(files) >= 10
    found = {
        path.name: lines
        for path in files
        if (lines := leq_calls(path.read_text(encoding="utf-8"), ALLOWED.get(path.name, ())))
    }
    assert found == {}


def test_the_allowance_is_used():
    source = (Path(pmkit.__file__).parent / "morphism.py").read_text(encoding="utf-8")
    assert leq_calls(source)


def test_the_guard_sees_leq_calls():
    assert leq_calls("p.leq(0, 1)\nself.order.leq(c, d)\nleq(0, 1)\n") == [1, 2]
    source = "def check():\n    p.leq(0, 1)\n\ndef search():\n    p.leq(0, 1)\n"
    assert leq_calls(source, {"check"}) == [5]
