"""Only :mod:`pmkit.order` decides what a point is, and :mod:`pmkit.errors`
what a natural number is: no other module tests a value for ``int`` or
``bool`` itself, so a point means the same thing in every module."""

import ast

from support import library_sources

ALLOWED = {"order.py", "errors.py"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def int_tests(source):
    """Lines of ``isinstance(..., int|bool)`` calls and of ``type(...)``
    compared with ``int`` or ``bool``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names(node.args[1]) & {"int", "bool"}
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            typed = any(
                isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "type"
                for o in operands
            )
            named = {o.id for o in operands if isinstance(o, ast.Name)}
            if typed and named & {"int", "bool"}:
                found.append(node.lineno)
    return sorted(found)


def test_only_order_and_errors_test_for_int():
    found = {
        name: lines
        for name, source in library_sources().items()
        if name not in ALLOWED and (lines := int_tests(source))
    }
    assert found == {}


def test_the_guard_sees_int_tests():
    source = "\n".join([
        "isinstance(x, int)",
        "isinstance(x, (str, bool))",
        "isinstance(x, int | bool)",
        "type(x) is int",
        "type(x) is not int and y",
        "isinstance(x, str)",
        "type(x) is str",
        "x is int",
    ])
    assert int_tests(source) == [1, 2, 3, 4, 5]
