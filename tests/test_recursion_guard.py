"""No function in the library calls itself.  Deep inputs, such as a space
of a thousand fixed points, must not meet Python's recursion limit, so the
searches and the downset counter run on explicit stacks; this scan keeps
direct recursion from coming back."""

import ast

from support import library_sources


def _is_self_call(node, name, in_class):
    """True when ``node`` calls ``name(...)``, or, in a method, ``self.name(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == name
    return (
        in_class
        and isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


def self_calls(source):
    """Qualified names of the functions in ``source`` that call themselves:
    by a bare ``name(...)`` inside ``def name``, or, in a method ``name``, by
    ``self.name(...)``."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                name = child.name
                if any(_is_self_call(inner, name, in_class) for inner in ast.walk(child)):
                    found.append(prefix + name)
                visit(child, f"{prefix}{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), "", False)
    return found


def test_no_library_function_calls_itself():
    found = {
        name: names for name, source in library_sources().items() if (names := self_calls(source))
    }
    assert found == {}


def test_the_guard_sees_recursive_calls():
    source = """
def walk(n):
    return walk(n - 1) if n else 0

class Search:
    def extend(self, pos):
        return self.extend(pos + 1)

    def run(self):
        return self.space.run() or super().run() or other.run()

    def __init__(self):
        super().__init__()

def outer():
    def inner(k):
        return inner(k - 1)
    return inner
"""
    assert self_calls(source) == ["walk", "Search.extend", "outer.inner"]
