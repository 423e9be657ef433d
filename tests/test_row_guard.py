"""The search and the space's own kernels read the order rows
``Poset._up`` and ``Poset._down`` themselves.  Every ``Poset`` query that
takes a point checks it, and these functions hold only points they made,
so a query there would check each point again on the search's hot path."""

from support import calls, library_sources

#: The functions, by file, that may call none of ``QUERIES``, nested
#: functions included.
ROW_READERS = {
    "morphism.py": {
        "_search",
        "_narrow",
        "_candidates",
        "_search_tables",
        "_is_twin_swap",
        "_q6_shape",
    },
    "space.py": {"__init__", "star_prime"},
}

#: The ``Poset`` queries that check their points.
QUERIES = ("up_mask", "down_mask", "leq", "min_below", "mask_of", "is_decreasing", "down_closure")


def query_calls(source, readers):
    """Lines of the calls of ``QUERIES`` inside the functions named in
    ``readers``, called by name or as an attribute."""
    return sorted(
        line
        for query in QUERIES
        for line, _, functions in calls(source, query)
        if not readers.isdisjoint(functions)
    )


def test_the_row_readers_call_no_checked_query():
    sources = library_sources()
    found = {}
    for name, readers in ROW_READERS.items():
        source = sources[name]
        # a renamed function would pass unseen
        assert all(f"def {reader}(" in source for reader in readers), name
        if lines := query_calls(source, readers):
            found[name] = lines
    assert found == {}


def test_the_guard_sees_query_calls():
    source = (
        "def _narrow(sp, x):\n"
        "    return sp.up_mask(x)\n"
        "\n"
        "def __init__(self, poset):\n"
        "    def image(x):\n"
        "        return poset.leq(x, 0) or mask_of([x])\n"
        "\n"
        "def check(p, x):\n"
        "    return p.down_mask(x)\n"
    )
    assert query_calls(source, {"_narrow", "__init__"}) == [2, 6, 6]
