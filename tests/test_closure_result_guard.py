"""A :class:`~pmkit.subalgebra.ClosureResult` is built only where the
closure runs, in :mod:`pmkit.subalgebra`: every other module takes the
result the closure returns and never wraps its members again."""

from support import calls, library_sources

ALLOWED = {"subalgebra.py"}


def result_builds(source):
    return [line for line, _, _ in calls(source, "ClosureResult")]


def test_closure_results_are_built_only_by_the_closure():
    found = {
        name: lines
        for name, source in library_sources().items()
        if name not in ALLOWED and (lines := result_builds(source))
    }
    assert found == {}


def test_the_guard_sees_result_builds():
    source = "ClosureResult(m, 1, 2)\nsubalgebra.ClosureResult(m, 0, 0)\nClosureResult\n"
    assert result_builds(source) == [1, 2]
