"""Inside the library, order questions are answered on the mask rows; only
the map validator ``morphism.check_pm_morphism`` still asks ``Poset.leq``
point by point.  The search narrows mask domains instead, so no search code
may bring back a point-by-point scan."""

from support import calls, library_sources

#: The functions allowed to call ``.leq(``, by file.
ALLOWED = {"morphism.py": {"check_pm_morphism"}}


def leq_calls(source, allowed=frozenset()):
    """Lines of the ``.leq(`` calls in ``source`` outside the functions
    named in ``allowed``."""
    return [
        line
        for line, form, functions in calls(source, "leq")
        if form == "attribute" and allowed.isdisjoint(functions)
    ]


def test_leq_is_called_only_by_the_map_validator():
    found = {
        name: lines
        for name, source in library_sources().items()
        if (lines := leq_calls(source, ALLOWED.get(name, frozenset())))
    }
    assert found == {}


def test_the_allowance_is_used():
    assert leq_calls(library_sources()["morphism.py"])


def test_the_guard_sees_leq_calls():
    assert leq_calls("p.leq(0, 1)\nself.order.leq(c, d)\nleq(0, 1)\n") == [1, 2]
    source = "def check():\n    p.leq(0, 1)\n\ndef search():\n    p.leq(0, 1)\n"
    assert leq_calls(source, {"check"}) == [5]
