"""Exhaustive checks on every pm-space with at most 5 points.

The spaces are listed by brute force, from the definitions alone (see
:mod:`support`): every partial order on the points, times every involution
that reverses it, with copies removed by trying every relabelling.  The
surjective-map search and the isomorphism test, and the map validator the
search ends on, are then held to a brute force over all maps, which checks
each map against the written-out definition of a structure map, and the
downset count and the congruence sets to every subset of the points.

Even at 5 points the search's static candidate filters and narrowing decide
every verdict: a search whose final validation of a complete map accepts
every map still passes the checks over the list.  So the leaf check is
pinned on a larger question that it alone decides,
:func:`test_the_leaf_check_decides_q6_3_3_onto_q5`."""

import pytest

from pmkit import catalog, check_pm_morphism, is_pm_isomorphic, morphism, search_surjective
from support import build, is_structure_map, minimals, onto, pm_spaces, powerset, relabel

MAX_POINTS = 5


@pytest.fixture(scope="module")
def small_spaces():
    """``(definition, Space)`` for each of the spaces, smallest first; a
    definition is ``(n, rel, z)``."""
    return [
        ((n, rel, z), build(n, rel, z))
        for n in range(MAX_POINTS + 1)
        for rel, z in pm_spaces(n)
    ]


def test_the_small_spaces_are_counted(small_spaces):
    sizes = [n for (n, _, _), _ in small_spaces]
    assert [sizes.count(n) for n in range(MAX_POINTS + 1)] == [1, 1, 3, 4, 13, 22]


def test_search_verdicts_equal_brute_force(small_spaces):
    """On every ordered pair, the validator agrees with the definition on
    every surjective map, the search finds a surjective structure map
    exactly when one exists, and its witness is one of them."""
    assert len(small_spaces) == 44
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
    assert 44 < found < 44 * 44


def test_downsets_equal_brute_force(small_spaces):
    """Counted and listed, the downsets are the subsets that hold every
    point below one of theirs."""
    for (n, rel, _), space in small_spaces:
        down = {s for s in powerset(range(n)) if all(x in s for x, y in rel if y in s)}
        masks = space.poset.downset_masks()
        assert space.poset.count_downsets() == len(masks) == len(down), (n, rel)
        assert set(map(space.poset.set_of, masks)) == down, (n, rel)


def test_congruence_sets_equal_brute_force(small_spaces):
    """The congruence sets are the involution-closed subsets that hold every
    point above one of their minimal points."""
    for (n, rel, z), space in small_spaces:
        lows = minimals(n, rel)
        found = {
            s
            for s in powerset(range(n))
            if all(z[x] in s for x in s) and all(y in s for x, y in rel if x in s & lows)
        }
        sets = space.congruence_sets()
        assert len(sets) == len(found) and set(sets) == found, (n, rel, z)


def test_isomorphism_separates_the_small_spaces(small_spaces):
    """Each space is isomorphic to itself and to a relabelled copy, and to no
    other space of the list."""
    for i, (_, a) in enumerate(small_spaces):
        assert is_pm_isomorphic(a, relabel(a, tuple(reversed(range(a.n)))))
        for j, (_, b) in enumerate(small_spaces):
            assert is_pm_isomorphic(a, b) == (i == j), (i, j)


def test_the_leaf_check_decides_q6_3_3_onto_q5(monkeypatch):
    """No surjective structure map takes ``q6(3,3)`` (6 points) onto ``q5``
    (4 points), but every complete map the search reaches there fails only
    the minimal-element clause, which no filter tests before the leaf.  A
    search whose leaf check accepts every map reports a witness."""
    src, dst = catalog.q6(3, 3), catalog.q(5)
    assert not search_surjective(src, dst).found
    monkeypatch.setattr(morphism, "check_pm_morphism", lambda *_: morphism.MorphismCheck(True))
    report = search_surjective(src, dst)
    assert report.found
    assert check_pm_morphism(src, dst, report.witness.mapping).clause == "minimals"
