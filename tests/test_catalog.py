"""Catalog constructors: validity, documented invariants, parameter errors."""

import gc
import sys
import threading
import weakref

import pytest

from pmkit import Poset, Space, catalog, dual_algebra, is_pm_isomorphic, search_surjective
from pmkit import Distance, crown_bound_check, l6_member, l6_member_oracle
from pmkit.document import MAX_ELEMENTS
from pmkit.errors import (
    BadParams,
    IndexOutOfRange,
    NotBooleanSubalgebra,
    PairedSingletonViolation,
)
from pmkit.morphism import _search_tables
from pmkit.subalgebra import generate_subalgebra, is_closed_family, one_generator_growth
from support import fs, powerset


# -- the six small spaces ----------------------------------------------------


def test_q_index_range():
    with pytest.raises(IndexOutOfRange):
        catalog.q(6)


BAD_PARAMS = [
    (catalog.q6, (1.0, 4.0), "m must be a natural number, got 1.0"),
    (catalog.q6, (1, 4.0), "n must be a natural number, got 4.0"),
    (catalog.q6, (True, 3), "m must be a natural number, got True"),
    (catalog.q6, (-1, 4), "m must be a natural number, got -1"),
    (catalog.range2_grid, (5.5,), "n must be a natural number, got 5.5"),
    (catalog.range2_grid, ("6",), "n must be a natural number, got '6'"),
    (catalog.crown_pair, (2.0,), "n must be a natural number, got 2.0"),
    (catalog.crown_pair, (None,), "n must be a natural number, got None"),
    (catalog.q, (1.0,), "i must be a natural number, got 1.0"),
    (catalog.q, (False,), "i must be a natural number, got False"),
    (one_generator_growth, (6.0,), "n must be a natural number, got 6.0"),
    (catalog.q6, (1, 2), "q6 requires n >= 3 and 0 <= m <= n, got (1, 2)"),
    (catalog.range2_grid, (4,), "range2_grid requires n >= 5, got 4"),
    (catalog.crown_pair, (1,), "crown_pair requires n >= 2, got 1"),
    (crown_bound_check, ("a", 0), "n must be a natural number, got 'a'"),
    (crown_bound_check, (2, True), "generators must be a natural number, got True"),
    (l6_member, (True, 3, 3, 3), "p must be a natural number, got True"),
    (l6_member, (0.5, 4, 3, 3), "p must be a natural number, got 0.5"),
    (l6_member, ("a", 3, 3, 3), "p must be a natural number, got 'a'"),
    (l6_member, (0, 3, 3, -4), "n must be a natural number, got -4"),
    (l6_member_oracle, (True, 3, 3, 3), "p must be a natural number, got True"),
    (Distance, (True,), "distance must be a natural number or None, got True"),
    (Distance, (1.5,), "distance must be a natural number or None, got 1.5"),
]


@pytest.mark.parametrize("build, args, message", BAD_PARAMS)
def test_family_parameters_must_be_natural(build, args, message):
    """Non-natural parameters, of the catalog families and of every other
    entry that takes natural numbers, are rejected before the range checks,
    whose messages stay as they were."""
    with pytest.raises(BadParams) as caught:
        build(*args)
    assert str(caught.value) == message


def test_families_share_one_space_per_valid_parameter_set():
    """Each family hands out one instance per parameter set, and only after
    validation: ``1 == 1.0 == True`` as dictionary keys, so with the int
    spaces built first every bad case above must still raise its message."""
    alive = [
        catalog.q6(1, 4), catalog.q6(1, 3), catalog.q6(2, 4),
        catalog.range2_grid(5), catalog.range2_grid(6), catalog.crown_pair(2),
        catalog.q(0), catalog.q(1), catalog.nonregular_chain3(),
    ]
    assert one_generator_growth(6) == 145
    for build, args, message in BAD_PARAMS:
        with pytest.raises(BadParams) as caught:
            build(*args)
        assert str(caught.value) == message
    for build, args in [
        (catalog.q6, (2, 4)),
        (catalog.range2_grid, (5,)),
        (catalog.crown_pair, (2,)),
        (catalog.q, (1,)),
        (catalog.nonregular_chain3, ()),
    ]:
        assert build(*args) is build(*args)
        assert any(build(*args) is space for space in alive)
    assert catalog.q6(1, 4) is not catalog.q6(2, 4)


# -- lifetimes: a derived fact lives on the space it describes -------------------


def test_the_catalog_keeps_its_spaces():
    """The catalog holds its spaces: a parameter set asked for again after
    the caller dropped its space gets the same object."""
    space = catalog.q6(7, 13)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is catalog.q6(7, 13)


def test_a_searched_space_outside_the_catalog_is_freed(relabel):
    """Searching keeps nothing alive: the tables of a space that is not in
    the catalog go with the space."""
    space = relabel(catalog.q6(2, 5), [3, 0, 9, 1, 4, 8, 5, 2, 7, 6])
    ref = weakref.ref(space)
    search_surjective(catalog.q6(3, 5), space)
    del space
    gc.collect()
    assert ref() is None


def test_search_tables_are_kept_per_space(relabel):
    """A space computes its tables once; an equal but distinct copy computes
    its own, equal ones."""
    space = catalog.crown_pair(3)
    copy = relabel(space, range(space.n))
    assert copy == space and copy is not space
    assert _search_tables(space) is _search_tables(space)
    assert _search_tables(copy) is _search_tables(copy)
    assert _search_tables(copy) == _search_tables(space)
    assert _search_tables(copy) is not _search_tables(space)


def test_threads_racing_on_a_new_space_get_equal_facts(relabel):
    """Threads asking a new space for its tables at once may each compute
    them; every result is equal, and later calls read one of them."""
    space = relabel(catalog.crown_pair(4), range(16))
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(_search_tables(space)))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 and all(tables == results[0] for tables in results)
    assert any(_search_tables(space) is tables for tables in results)


def test_q_kleene_split():
    kleene = {i: catalog.q(i).is_kleene() for i in range(6)}
    assert kleene == {0: True, 1: False, 2: True, 3: False, 4: False, 5: True}


def test_q_widths():
    widths = [catalog.q(i).zeta_width() for i in range(6)]
    assert widths == [0, 0, 0, 1, 1, 1]


def test_q_all_simple():
    assert all(catalog.q(i).is_simple() for i in range(6))


def test_q4_q5_differ_in_one_relation():
    q4, q5 = catalog.q(4), catalog.q(5)
    assert not q4.poset.leq(0, q4.zeta[0])
    assert q5.poset.leq(0, q5.zeta[0])
    assert q4.poset.leq(1, q4.zeta[1]) and q5.poset.leq(1, q5.zeta[1])


# -- q6 family ------------------------------------------------------------------


def test_q6_bad_params():
    with pytest.raises(BadParams):
        catalog.q6(0, 2)
    with pytest.raises(BadParams):
        catalog.q6(4, 3)


def test_q6_empty_exception_set_is_complete_bipartite():
    space = catalog.q6(0, 3)
    for i in range(3):
        for j in range(3):
            assert space.poset.leq(i, 3 + j)


def test_q6_diagonal_rule():
    space = catalog.q6(3, 3)
    assert not space.poset.leq(0, space.zeta[0])
    assert space.poset.leq(0, space.zeta[1])


def test_q6_width_one_everywhere():
    for n in range(3, 6):
        for m in range(n + 1):
            assert catalog.q6(m, n).zeta_width() == 1


def test_q6_up_closure_rule():
    """Up-closing any downset holding two or more minimals adds exactly the
    maximal level."""
    for n in (3, 4, 5):
        for m in range(n + 1):
            space = catalog.q6(m, n)
            minimal_level = frozenset(range(n))
            maximal_level = frozenset(range(n, 2 * n))
            algebra = dual_algebra(space)
            for xs in algebra.elements:
                if len(xs & minimal_level) >= 2:
                    # the up-closure is the complement of the pseudocomplement
                    assert algebra.one - algebra.star(xs) == xs | maximal_level


def test_q6_isomorphism_classification():
    """Distinct parameters give non-isomorphic spaces; same parameters match."""
    labels = [(m, n) for n in (3, 4, 5) for m in range(n + 1)]
    for a in labels:
        for b in labels:
            assert is_pm_isomorphic(catalog.q6(*a), catalog.q6(*b)) == (a == b)


# -- grid family -----------------------------------------------------------------


def test_grid_bad_params():
    with pytest.raises(BadParams):
        catalog.range2_grid(4)


def test_grid_kleene_and_width():
    for n in (5, 6):
        space = catalog.range2_grid(n)
        assert space.is_kleene()
        assert space.zeta_width() == 2
        for i in range(n):
            assert space.poset.leq(i, space.zeta[i])


def test_grid_no_wraparound():
    space = catalog.range2_grid(5)
    assert space.poset.leq(0, 5)        # x0 < y0
    assert not space.poset.leq(0, 6)    # x0 not< y1
    assert space.poset.leq(0, 9)        # x0 < y4: index 4 is not adjacent to 0
    assert not space.poset.leq(4, 8)    # x4 not< y3


def test_grid_not_in_width_one_class():
    assert not catalog.range2_grid(5).simple_in_mn(1)


# -- crown family ------------------------------------------------------------------


def test_crown_bad_params():
    with pytest.raises(BadParams):
        catalog.crown_pair(1)


def test_crown_kleene_regular_simple():
    for n in (2, 3):
        space = catalog.crown_pair(n)
        assert space.is_kleene() and space.is_regular() and space.is_simple()
        assert space.simple_in_mn(2)


def test_crown_distance_between_partners():
    space = catalog.crown_pair(3)
    for i in range(3):
        assert space.poset.distance(i, 3 + i).value == 2


# -- non-regular control -------------------------------------------------------------


def test_chain3_control():
    space = catalog.nonregular_chain3()
    assert space.poset.height() == 2
    algebra = dual_algebra(space)
    assert not algebra.is_regular()
    assert not algebra.moisil_trivial()


# -- closed families -----------------------------------------------------------------


def test_kf_q6_minimal_family():
    members = catalog.kf_subalgebra_q6(2, 4, [fs(), fs(0, 1, 2, 3)])
    assert members == [fs(), fs(0, 1, 2, 3), fs(0, 1, 2, 3, 4, 5, 6, 7)]


def test_kf_q6_full_powerset_count():
    # the three parts overlap only at the minimal level itself
    for n in (3, 4):
        members = catalog.kf_subalgebra_q6(n, n, powerset(range(n)))
        assert len(members) == 2 ** (n + 1) + n - 1
        assert len(members) == len(dual_algebra(catalog.q6(n, n)))


def test_kf_q6_closed_and_fixed_under_generation(field_of_subsets):
    family = field_of_subsets(4, [fs(0)])
    members = catalog.kf_subalgebra_q6(2, 4, family)
    algebra = dual_algebra(catalog.q6(2, 4))
    assert is_closed_family(algebra, members)
    closure = generate_subalgebra(algebra, members)
    assert set(closure.generated) == set(members)


def test_kf_q6_rejects_non_field():
    with pytest.raises(NotBooleanSubalgebra):
        catalog.kf_subalgebra_q6(2, 4, [fs(), fs(0), fs(0, 1, 2, 3)])


@pytest.mark.parametrize(
    "family,message",
    [
        ([fs(0, 1, 2, 3)], "^family must contain the empty set and the ground set$"),
        ([fs(), fs(0, 1, 2, 3), fs(4)], r"^\[4\] is not a subset of the ground set$"),
        (
            [fs(), fs(0, 1, 2, 3), fs(0, 1), fs(2, 3), fs(1, 2), fs(0, 3)],
            r"^intersection of \[\d, \d\] and \[\d, \d\] missing$",
        ),
    ],
    ids=["no-empty-set", "not-a-subset", "no-intersection"],
)
def test_kf_q6_names_how_a_family_is_no_field(family, message):
    """4 is a point of ``q6(2, 4)`` but lies outside the minimal level, and
    the last family is closed under complement but not under intersection."""
    with pytest.raises(NotBooleanSubalgebra, match=message):
        catalog.kf_subalgebra_q6(2, 4, family)


def test_kf_crown_minimal_family():
    members = catalog.kf_subalgebra_crown(
        2, [fs(), fs(0, 1)], [fs(), fs(2, 3)]
    )
    assert len(members) == 7
    assert is_closed_family(dual_algebra(catalog.crown_pair(2)), members)


def test_kf_crown_full_powersets():
    members = catalog.kf_subalgebra_crown(2, powerset((0, 1)), powerset((2, 3)))
    assert len(members) == 35
    assert is_closed_family(dual_algebra(catalog.crown_pair(2)), members)


def test_kf_crown_paired_singleton_enforced(field_of_subsets):
    lopsided = field_of_subsets(2, [fs(0)])
    with pytest.raises(PairedSingletonViolation):
        catalog.kf_subalgebra_crown(2, lopsided, [fs(), fs(2, 3)])


def test_kf_families_that_are_no_sets_are_refused():
    """A member that is no collection of hashable points is refused as a
    family, in either field of the crown."""
    with pytest.raises(NotBooleanSubalgebra, match="is not a family of sets of points"):
        catalog.kf_subalgebra_q6(2, 4, [[[0]]])
    field = [fs(), fs(0, 1)]
    with pytest.raises(NotBooleanSubalgebra, match="is not a family of sets of points"):
        catalog.kf_subalgebra_crown(2, [[[0]]], [fs(), fs(2, 3)])
    with pytest.raises(NotBooleanSubalgebra, match="is not a family of sets of points"):
        catalog.kf_subalgebra_crown(2, field, [[[2]]])
    with pytest.raises(NotBooleanSubalgebra, match="is not a family of sets of points"):
        catalog.kf_subalgebra_q6(2, 4, 5)


@pytest.mark.parametrize("point", ["a", None, 2.5, -1, 100])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: catalog.kf_subalgebra_q6(2, 4, [fs(), fs(0, 1, 2, 3), bad]),
        lambda bad: catalog.kf_subalgebra_crown(2, [fs(), fs(0, 1), bad], [fs(), fs(2, 3)]),
        lambda bad: catalog.kf_subalgebra_crown(2, [fs(), fs(0, 1)], [fs(), fs(2, 3), bad]),
    ],
    ids=["q6", "crown-a", "crown-b"],
)
def test_kf_members_must_hold_points(build, point):
    """A member holding something that is no point of the space is refused
    before any message sorts it; mixed with ints it would not sort."""
    with pytest.raises(NotBooleanSubalgebra, match="is not a point of the space"):
        build([0, point])
    with pytest.raises(NotBooleanSubalgebra, match="is not a point of the space"):
        build([point])


def test_kf_members_must_hold_int_points():
    """``True`` is no point, though a set holding it equals one holding 1."""
    with pytest.raises(NotBooleanSubalgebra, match="True is not a point of the space"):
        catalog.kf_subalgebra_q6(2, 4, [fs(), fs(0, 1, 2, 3), [True]])


# -- registry -------------------------------------------------------------------------


def test_named_space_tokens():
    for token in ["q0", "q5", "q6:1,4", "grid:5", "crown:2", "chain3"]:
        space, names = catalog.named_space(token)
        assert len(names) == space.n
        assert len(set(names)) == space.n
    expected = {
        "q3": ("a", "b", "zb", "za"),
        "q6:1,3": ("s0", "s1", "s2", "zs0", "zs1", "zs2"),
        "grid:5": ("x0", "x1", "x2", "x3", "x4", "y0", "y1", "y2", "y3", "y4"),
        "crown:2": ("a0", "a1", "b0", "b1", "za0", "za1", "zb0", "zb1"),
        "chain3": ("a", "b", "c"),
    }
    for token, names in expected.items():
        assert catalog.named_space(token)[1] == names, token


def test_named_space_rejects_junk():
    expected = {
        "q9": "unknown catalog token 'q9'",
        "nothing": "unknown catalog token 'nothing'",
        "q6": "unknown catalog token 'q6'",
        "q\u00b2": "unknown catalog token 'q\u00b2'",
        "q\u0663": "unknown catalog token 'q\u0663'",
        "grid:x": "expected grid:n with an integer, got 'grid:x'",
        "grid:5,6": "expected grid:n with an integer, got 'grid:5,6'",
        "crown:x": "expected crown:n with an integer, got 'crown:x'",
        "q6:1": "expected q6:m,n with integers, got 'q6:1'",
        "q6:1,4,": "expected q6:m,n with integers, got 'q6:1,4,'",
        "q6:9,2": "q6 requires n >= 3 and 0 <= m <= n, got (9, 2)",
    }
    for token, message in expected.items():
        with pytest.raises(BadParams) as caught:
            catalog.named_space(token)
        assert str(caught.value) == message, token


def test_named_space_caps_points_like_a_document(monkeypatch):
    """A token names at most MAX_ELEMENTS points and is refused before its
    space is built (the CLI tests build the tokens at the cap); the
    constructors themselves have no cap."""

    def refuse(*args):
        raise AssertionError("the space was built")

    monkeypatch.setattr(catalog, "_two_level", refuse)
    expected = {
        "q6:0,513": "'q6:0,513' has 1026",
        "q6:600,513": "'q6:600,513' has 1026",
        "grid:513": "'grid:513' has 1026",
        "crown:257": "'crown:257' has 1028",
        "grid:50000": "'grid:50000' has 100000",
    }
    for token, tail in expected.items():
        with pytest.raises(BadParams) as caught:
            catalog.named_space(token)
        message = f"a catalog space may have at most {MAX_ELEMENTS} points, {tail}"
        assert str(caught.value) == message, token
    monkeypatch.undo()
    assert catalog.crown_pair(257).n == 1028


def test_every_catalog_space_validates(catalog_spaces):
    # construction already validates; double-check flags are computable
    for name, space in catalog_spaces:
        kind = space.kind()
        assert isinstance(kind.zeta_width, int), name
        assert space.n <= 12, name


# -- pair-list references --------------------------------------------------------
#
# The constructors as generating pairs closed by ``Poset.from_pairs``, spelled
# out family by family; the catalog builds the up rows directly.


def q_pairs(i):
    size, pairs, zeta = [
        (1, [], (0,)),
        (2, [], (1, 0)),
        (2, [(0, 1)], (1, 0)),
        # 0 < 1 and 2 < 3, the chains swapped by the involution.
        (4, [(0, 1), (2, 3)], (3, 2, 1, 0)),
        # 0 is the one minimal not below its own image 2.
        (4, [(0, 3), (1, 2), (1, 3)], (2, 3, 0, 1)),
        (4, [(0, 2), (0, 3), (1, 2), (1, 3)], (2, 3, 0, 1)),
    ][i]
    return Space(Poset.from_pairs(size, pairs), zeta)


def q6_pairs(m, n):
    pairs = [(i, n + j) for i in range(n) for j in range(n) if i != j or i >= m]
    return Space(Poset.from_pairs(2 * n, pairs), tuple(range(n, 2 * n)) + tuple(range(n)))


def grid_pairs(n):
    pairs = [(i, n + j) for i in range(n) for j in range(n) if i not in (j - 1, j + 1)]
    return Space(Poset.from_pairs(2 * n, pairs), tuple(range(n, 2 * n)) + tuple(range(n)))


def crown_pairs(n):
    pairs = []
    for i in range(n):
        for j in range(n):
            pairs.append((i, 2 * n + j))  # a_i < zeta(a_j)
            pairs.append((n + i, 3 * n + j))  # b_i < zeta(b_j)
            if i != j:
                pairs.append((i, 3 * n + j))  # a_i < zeta(b_j)
                pairs.append((n + i, 2 * n + j))  # b_i < zeta(a_j)
    zeta = tuple(range(2 * n, 4 * n)) + tuple(range(2 * n))
    return Space(Poset.from_pairs(4 * n, pairs), zeta)


def disjoint_union_pairs(a, b):
    shift = a.n
    pairs = [(x, y) for x in range(a.n) for y in range(a.n) if a.poset.leq(x, y)]
    pairs += [
        (shift + x, shift + y) for x in range(b.n) for y in range(b.n) if b.poset.leq(x, y)
    ]
    zeta = tuple(a.zeta) + tuple(shift + z for z in b.zeta)
    return Space(Poset.from_pairs(a.n + b.n, pairs), zeta)


def test_small_spaces_match_pair_list_references():
    for i in range(6):
        assert catalog.q(i) == q_pairs(i), i


def test_families_match_pair_list_references():
    for n in range(3, 9):
        for m in range(n + 1):
            assert catalog.q6(m, n) == q6_pairs(m, n), (m, n)
    for n in range(5, 13):
        assert catalog.range2_grid(n) == grid_pairs(n), n
    for n in range(2, 7):
        assert catalog.crown_pair(n) == crown_pairs(n), n
    for a, b in [
        (catalog.q(2), catalog.q(0)),
        (catalog.q6(1, 3), catalog.crown_pair(2)),
        (catalog.nonregular_chain3(), catalog.q(4)),
    ]:
        assert catalog.disjoint_union(a, b) == disjoint_union_pairs(a, b)
