"""Exhaustive checks on every pm-space with at most 4 points.

The spaces are listed by brute force, from the definitions alone: every
partial order on the points, times every involution that reverses it, with
copies removed by trying every relabelling.  The surjective-map search and
the isomorphism test, and the map validator the search ends on, are then
held to a brute force over all maps, which checks each map against the
definitions written out below.  At this size the search's static candidate
filters and narrowing already decide every verdict: its final validation
of a complete map never rejects one here."""

import itertools

import pytest

from pmkit import Poset, Space, check_pm_morphism, is_pm_isomorphic, search_surjective

MAX_POINTS = 4


def orders(n):
    """Every partial order on ``range(n)``, as the set of pairs ``(x, y)``
    with ``x <= y``."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x < y]
    # each unordered pair is unrelated, below or above
    for choice in itertools.product((None, 0, 1), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)}
        rel |= {(x, y) if c == 0 else (y, x) for (x, y), c in zip(pairs, choice) if c is not None}
        if all((x, w) in rel for x, y in rel for v, w in rel if y == v):
            yield frozenset(rel)


def involutions(n):
    """Every permutation ``z`` of ``range(n)`` with ``z[z[x]] == x``."""
    for z in itertools.permutations(range(n)):
        if all(z[z[x]] == x for x in range(n)):
            yield z


def canonical(n, rel, z):
    """The least relabelled copy of ``(rel, z)``: equal for isomorphic spaces."""
    copies = []
    for p in itertools.permutations(range(n)):
        moved = tuple(sorted((p[x], p[y]) for x, y in rel))
        copies.append((moved, tuple(p[z[p.index(x)]] for x in range(n))))
    return min(copies)


def pm_spaces(n):
    """One ``(rel, z)`` per isomorphism class of ``n``-point pm-spaces."""
    found = {}
    for rel in orders(n):
        for z in involutions(n):
            # z reverses the order: x <= y gives z(y) <= z(x)
            if all((z[y], z[x]) in rel for x, y in rel):
                found.setdefault(canonical(n, rel, z), (rel, z))
    return [found[key] for key in sorted(found)]


def minimals(n, rel):
    return {x for x in range(n) if all(y == x for y, w in rel if w == x)}


def is_structure_map(src, dst, phi):
    """The definition of a pm-space morphism, checked directly: ``phi``
    preserves the order, commutes with the involutions, and every minimal
    point below ``phi(x)`` is the image of a minimal point below ``x``."""
    (n, rel, z), (m, drel, dz) = src, dst
    if any((phi[x], phi[y]) not in drel for x, y in rel):
        return False
    if any(phi[z[x]] != dz[phi[x]] for x in range(n)):
        return False
    src_min, dst_min = minimals(n, rel), minimals(m, drel)
    for x in range(n):
        pushed = {phi[y] for y in src_min if (y, x) in rel}
        if any((t, phi[x]) in drel and t not in pushed for t in dst_min):
            return False
    return True


def onto(n, m):
    """Every surjective map from ``range(n)`` onto ``range(m)``."""
    return [phi for phi in itertools.product(range(m), repeat=n) if len(set(phi)) == m]


def build(n, rel, z):
    up = [sum(1 << y for w, y in rel if w == x) for x in range(n)]
    return Space(Poset(up), z)


@pytest.fixture(scope="module")
def small_spaces():
    """``(definition, Space)`` for each of the spaces, smallest first; a
    definition is ``(n, rel, z)``."""
    return [
        ((n, rel, z), build(n, rel, z))
        for n in range(MAX_POINTS + 1)
        for rel, z in pm_spaces(n)
    ]


def test_the_small_spaces_are_counted():
    assert [len(pm_spaces(n)) for n in range(MAX_POINTS + 1)] == [1, 1, 3, 4, 13]


def test_search_verdicts_equal_brute_force(small_spaces):
    """On every ordered pair, the validator agrees with the definition on
    every surjective map, the search finds a surjective structure map
    exactly when one exists, and its witness is one of them."""
    assert len(small_spaces) == 22
    found = 0
    for src, a in small_spaces:
        for dst, b in small_spaces:
            maps = []
            for phi in onto(src[0], dst[0]):
                ok = is_structure_map(src, dst, phi)
                assert check_pm_morphism(a, b, phi).ok == ok, (src, dst, phi)
                if ok:
                    maps.append(phi)
            report = search_surjective(a, b)
            assert report.found == bool(maps), (src, dst)
            if report.found:
                assert report.witness.mapping in maps, (src, dst)
                found += 1
    assert 22 < found < 22 * 22


def test_isomorphism_separates_the_small_spaces(small_spaces):
    """Each space is isomorphic to itself and to a relabelled copy, and to no
    other space of the list."""
    for i, ((n, rel, z), a) in enumerate(small_spaces):
        p = tuple(reversed(range(n)))
        copy = build(n, {(p[x], p[y]) for x, y in rel}, [p[z[p[x]]] for x in range(n)])
        assert is_pm_isomorphic(a, copy)
        for j, (_, b) in enumerate(small_spaces):
            assert is_pm_isomorphic(a, b) == (i == j), (i, j)
