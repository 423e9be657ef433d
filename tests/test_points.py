"""One rule for points: an exact ``int`` in ``range(n)``, decided by
:mod:`pmkit.order` for every entry of the library that takes a point."""

from enum import IntEnum

import pytest

from pmkit import MorphismMap, Poset, Space, catalog, check_pm_morphism, dual_algebra
from pmkit import is_pm_isomorphic, search_surjective
from pmkit.errors import BadParams, IndexOutOfRange, NotAnElement
from pmkit.morphism import check_q6_criteria
from pmkit.order import check_indices


class P(IntEnum):
    A = 0
    B = 1


SRC, DST = catalog.q6(1, 3), catalog.q6(0, 3)

#: Each entry called with ``bad`` in a point position; by its value alone
#: (1 for the enum member and ``True``, a row from the end for ``-1``) every
#: call would succeed.
ENTRIES = {
    "up_mask": (IndexOutOfRange, lambda bad: SRC.poset.up_mask(bad)),
    "down_mask": (IndexOutOfRange, lambda bad: SRC.poset.down_mask(bad)),
    "leq-left": (IndexOutOfRange, lambda bad: SRC.poset.leq(bad, 4)),
    "leq-right": (IndexOutOfRange, lambda bad: SRC.poset.leq(0, bad)),
    "mask_of": (IndexOutOfRange, lambda bad: SRC.poset.mask_of([0, bad])),
    "down_closure": (IndexOutOfRange, lambda bad: SRC.poset.down_closure([bad])),
    "is_decreasing": (IndexOutOfRange, lambda bad: SRC.poset.is_decreasing([bad])),
    "min_below": (IndexOutOfRange, lambda bad: SRC.poset.min_below(bad)),
    "distance-left": (IndexOutOfRange, lambda bad: SRC.poset.distance(bad, 0)),
    "distance-right": (IndexOutOfRange, lambda bad: SRC.poset.distance(0, bad)),
    "distance_to_set-point": (IndexOutOfRange, lambda bad: SRC.poset.distance_to_set(bad, [0])),
    "distance_to_set-set": (IndexOutOfRange, lambda bad: SRC.poset.distance_to_set(0, [bad])),
    "distance_levels": (IndexOutOfRange, lambda bad: SRC.poset.distance_levels([bad])),
    "zeta_image": (IndexOutOfRange, lambda bad: SRC.zeta_image([bad])),
    "zeta_distance-left": (IndexOutOfRange, lambda bad: SRC.zeta_distance(bad, 0)),
    "zeta_distance-right": (IndexOutOfRange, lambda bad: SRC.zeta_distance(0, bad)),
    "Space": (IndexOutOfRange, lambda bad: Space(Poset.antichain(2), [bad, 0])),
    "MorphismMap": (IndexOutOfRange, lambda bad: MorphismMap(SRC, DST, (bad, 1, 2, 4, 4, 5))),
    "check_pm_morphism": (
        IndexOutOfRange, lambda bad: check_pm_morphism(SRC, DST, (bad, 1, 2, 4, 4, 5))
    ),
    "check_q6_criteria": (
        IndexOutOfRange, lambda bad: check_q6_criteria(SRC, DST, (bad, 1, 2, 4, 4, 5))
    ),
    "Algebra.star": (NotAnElement, lambda bad: dual_algebra(SRC).star([bad])),
    "Algebra.mask_of": (NotAnElement, lambda bad: dual_algebra(SRC).mask_of([bad])),
}


@pytest.mark.parametrize(
    "bad",
    [P.B, True, 1.0, 6, -1, None],
    ids=["IntEnum", "bool", "float", "high", "negative", "None"],
)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_point_entry_refuses_what_is_no_point(entry, bad):
    error, call = ENTRIES[entry]
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_point_entry_takes_the_point_itself(entry):
    """The same calls with the plain int 1 go through: the refusals above
    are for the kind of value, not for the point."""
    ENTRIES[entry][1](1)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Poset.from_pairs(2, [(0,)]), "pair (0,) is not a pair of points"),
        (lambda: Poset.from_pairs(2, [0]), "pair 0 is not a pair of points"),
        (lambda: Poset.from_pairs(2, [(0, 1, 1)]), "pair (0, 1, 1) is not a pair of points"),
        (lambda: Space(Poset.antichain(1), 0), "zeta must be a sequence of points, got 0"),
        (lambda: Poset(5), "up_rows must be a sequence of masks, got 5"),
        (lambda: Poset.from_pairs(2, 5), "pairs must be an iterable of pairs, got 5"),
        (lambda: Space(5, [0]), "poset must be a Poset, got 5"),
        (lambda: SRC.poset.mask_of(None), "xs must be an iterable of points, got None"),
        (lambda: SRC.poset.down_closure(None), "xs must be an iterable of points, got None"),
        (lambda: SRC.poset.is_decreasing(None), "xs must be an iterable of points, got None"),
        (lambda: SRC.poset.distance_levels(5), "xs must be an iterable of points, got 5"),
        (lambda: SRC.poset.distance_to_set(0, None), "xs must be an iterable of points, got None"),
        (lambda: SRC.zeta_image(None), "xs must be an iterable of points, got None"),
        (lambda: check_pm_morphism(SRC, SRC, 5), "mapping must be a sequence of points, got 5"),
        (lambda: check_q6_criteria(SRC, SRC, 5), "mapping must be a sequence of points, got 5"),
        (lambda: MorphismMap(SRC, SRC, None), "mapping must be a sequence of points, got None"),
    ],
    ids=["short-pair", "no-pair", "long-pair", "no-involution", "no-rows", "no-pairs", "no-poset"]
    + ["mask_of", "down_closure", "is_decreasing", "distance_levels", "distance_to_set"]
    + ["zeta_image", "check_pm_morphism", "check_q6_criteria", "MorphismMap"],
)
def test_malformed_construction_raises_a_typed_error(build, message):
    """Construction and the entries that take points hold to the rule too:
    an entry that is no pair, rows or pairs that are no container, a poset
    that is no ``Poset``, or an involution, a set of points or a mapping that
    is not iterable, is named in an ``IndexOutOfRange``."""
    with pytest.raises(IndexOutOfRange) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: search_surjective(5, DST), IndexOutOfRange, "src must be a Space, got 5"),
        (lambda: search_surjective(SRC, 5), IndexOutOfRange, "dst must be a Space, got 5"),
        (lambda: is_pm_isomorphic(SRC, None), IndexOutOfRange, "b must be a Space, got None"),
        (lambda: dual_algebra(5), IndexOutOfRange, "space must be a Space, got 5"),
        (lambda: catalog.disjoint_union(SRC, 5), IndexOutOfRange, "b must be a Space, got 5"),
        (lambda: catalog.named_space(5), BadParams, "a catalog token must be a string, got 5"),
    ],
    ids=["search-src", "search-dst", "is_pm_isomorphic", "dual_algebra", "disjoint_union"]
    + ["named_space"],
)
def test_an_argument_that_is_no_space_raises_a_typed_error(call, error, message):
    """An entry that takes a space names the argument that is none, and a
    catalog token that is no string is a bad parameter."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_the_check_names_the_first_bad_member():
    assert check_indices([2, 0, 2], 3) == (2, 0, 2)
    assert check_indices((), 0) == ()
    cases = [
        (([0, "a", 1.0], 3), "index 'a' is not an int"),
        (([9, P.B], 3), "index <P.B: 1> is not an int"),
        (([0, 5, -1], 3, "mapping image"), "mapping image 5 out of range for n=3"),
        (([-1, 5], 3), "index -1 out of range for n=3"),
    ]
    for args, message in cases:
        with pytest.raises(IndexOutOfRange) as err:
            check_indices(*args)
        assert str(err.value) == message
