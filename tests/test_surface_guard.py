"""Guards on the shape of the library.

A derived fact lives on the object it describes (``space.per_space``), so
the library keeps no function cache and no weak table beside it.  And every
public name has a user: a name in ``pmkit.__all__`` is referenced, and a
public method of a library class is read as an attribute, somewhere in
``src/``, ``demos/`` or ``perfbench/``, or the name is on the allow-list
below with its reason."""

import ast

import pmkit
from support import ROOT, library_sources

#: Public names with no user in the tree, kept on purpose.
ALLOWED = {
    # the paper's membership question (is a simple algebra in the variety the
    # others generate?); the subvariety lattice answers it for all pairs at
    # once, and the tests pin the single question against the L6 predicate
    "is_member",
}


def cache_uses(source):
    """Lines that import or name ``lru_cache``, ``functools.cache`` or the
    ``weakref`` module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = {alias.name for alias in node.names}
            if names & {"lru_cache", "cache"}:
                lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            modules += [alias.name for alias in node.names]
            if "weakref" in modules:
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in {"lru_cache", "cache"}:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
    return sorted(lines)


def test_the_library_keeps_no_function_cache_or_weak_table():
    found = {
        name: lines for name, source in library_sources().items() if (lines := cache_uses(source))
    }
    assert found == {}


def test_the_cache_guard_sees_every_form():
    source = (
        "from functools import cached_property, lru_cache\n"
        "import functools\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    return x\n"
        "import weakref\n"
        "from weakref import WeakValueDictionary\n"
        "from functools import wraps\n"
    )
    assert cache_uses(source) == [1, 3, 6, 7]


def public_names(sources):
    """``(owner, name)`` of every public method of every public class."""
    return {
        (cls.name, item.name)
        for source in sources
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def referenced(sources):
    """``(names, attributes)``: every name read as a bare name or as an
    attribute, and every name read as an attribute."""
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names | attributes, attributes


def test_every_public_name_has_a_user():
    library = list(library_sources().values())
    users = library + [
        path.read_text(encoding="utf-8")
        for folder in ("demos", "perfbench")
        for path in sorted((ROOT / folder).glob("**/*.py"))
    ]
    assert len(users) > len(library)
    # a method is reached through its object, so only an attribute read uses it
    used, attributes = referenced(users)
    unused = {name for name in pmkit.__all__ if name not in used}
    unused |= {name for _, name in public_names(library) if name not in attributes}
    # an entry that gains a user leaves the list
    assert unused == ALLOWED


def test_the_user_guard_sees_an_unused_method():
    source = (
        "class Shape:\n"
        "    def area(self):\n"
        "        return self._side() ** 2\n"
        "    def _side(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return Shape().area()\n"
        "    def shadowed(self):\n"
        "        shadowed = 1\n"
        "        return shadowed\n"
        "class _Private:\n"
        "    def hidden(self):\n"
        "        pass\n"
    )
    assert public_names([source]) == {
        ("Shape", "area"),
        ("Shape", "unused"),
        ("Shape", "shadowed"),
    }
    used, attributes = referenced([source])
    assert "area" in attributes and "unused" not in used
    # a local variable of the same name is no use of the method
    assert "shadowed" in used and "shadowed" not in attributes
