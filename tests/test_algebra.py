"""The downset algebra: operations, laws, range, congruences, duality."""

import itertools
import random

import pytest

from pmkit import Poset, Space, acceptance, catalog, dual_algebra, generate_subalgebra
from pmkit.errors import (
    BadParams,
    NotAnElement,
    NotRegular,
    SizeLimitExceeded,
)
from pmkit.subalgebra import crown_bound_check, is_closed_family
from support import fs, powerset, random_regular_space, up_closure


def canonical_key(s):
    return len(s), tuple(sorted(s))


class FrozensetAlgebra:
    """Reference downset algebra computed on frozensets of points: the
    elements are found by testing every subset, and each operation and
    query is the set-level definition, with no bitmask in between."""

    def __init__(self, space):
        n = space.n
        self.space = space
        self.universe = frozenset(range(n))
        self.elements = sorted(
            (s for s in powerset(range(n)) if space.poset.down_closure(s) == s), key=canonical_key
        )

    def star(self, xs):
        return self.universe - up_closure(self.space.poset, xs)

    def prime(self, xs):
        return self.universe - self.space.zeta_image(xs)

    def plus(self, xs):
        return self.prime(self.star(self.prime(xs)))

    def prime_star(self, xs):
        return self.star(self.prime(xs))

    def range_iterate(self, xs, k):
        for _ in range(k):
            xs = self.prime_star(xs)
        return xs

    def range_of(self):
        def steps(xs):
            current, k = xs & self.prime_star(xs), 0
            while (nxt := self.prime_star(current)) != current:
                current, k = nxt, k + 1
            return k

        return max(map(steps, self.elements), default=0)

    def is_regular(self):
        lower, upper = frozenset(), self.universe
        for xs in self.elements:
            lower |= xs & self.plus(xs)
            upper &= xs | self.star(xs)
        return lower <= upper

    def _signature_trivial(self, signature):
        seen = {}
        for xs in self.elements:
            sig = signature(xs)
            if seen.setdefault(sig, xs) != xs:
                return False
        return True

    def moisil_trivial(self):
        return self._signature_trivial(lambda xs: (self.star(xs), self.prime_star(xs)))

    def determination_trivial(self):
        return self._signature_trivial(lambda xs: (self.star(xs), self.plus(xs)))

    def congruence_sets(self):
        poset, zeta_image = self.space.poset, self.space.zeta_image

        def generator(x):
            current = frozenset((x,))
            while True:
                grown = current | zeta_image(current)
                grown |= up_closure(poset, grown & Poset.set_of(poset.minimals_mask()))
                if grown == current:
                    return current
                current = grown

        found = {frozenset()}
        for gen in {generator(x) for x in range(self.space.n)}:
            found |= {xs | gen for xs in found}
        return tuple(sorted(found, key=canonical_key))

    def point_ideal(self, x):
        return frozenset(i for i, xs in enumerate(self.elements) if x not in xs)

    def reconstruct_space(self):
        n = self.space.n
        ideals = [self.point_ideal(x) for x in range(n)]
        lookup = {ideal: x for x, ideal in enumerate(ideals)}
        pairs = [(i, j) for i in range(n) for j in range(n) if ideals[i] <= ideals[j]]
        primes = [self.prime(xs) for xs in self.elements]
        zeta = [
            lookup[frozenset(i for i, ys in enumerate(primes) if x in ys)] for x in range(n)
        ]
        return Space(Poset.from_pairs(n, pairs), zeta)


# -- enumeration --------------------------------------------------------------


@pytest.mark.parametrize(
    "token,size",
    [("q0", 2), ("q2", 3), ("q5", 7), ("q6:3,3", 18), ("q6:0,3", 15), ("q6:6,6", 133)],
)
def test_algebra_sizes(token, size):
    space, _ = catalog.named_space(token)
    assert len(dual_algebra(space)) == size


def test_elements_are_downsets_in_canonical_order():
    algebra = dual_algebra(catalog.q6(1, 3))
    p = algebra.space.poset
    assert algebra.elements[0] == frozenset()
    assert algebra.elements[-1] == frozenset(range(6))
    keys = [(len(s), tuple(sorted(s))) for s in algebra.elements]
    assert keys == sorted(keys)
    assert all(p.is_decreasing(s) for s in algebra.elements)
    assert len(set(algebra.elements)) == len(algebra.elements)


def test_mask_algebra_matches_frozenset_reference(random_pm_space):
    """Element order, the operations and every query agree with the
    frozenset reference on the catalog and on seeded random pm-spaces, and
    non-elements are refused."""
    rng = random.Random(606)
    spaces = [space for _, space in acceptance.catalog_spaces()]
    spaces += [random_pm_space(rng) for _ in range(150)]
    tall = sum(space.poset.height() >= 2 for space in spaces)
    with_fixed = sum(any(z == x for x, z in enumerate(space.zeta)) for space in spaces)
    assert tall >= 20 and with_fixed >= 20
    for space in spaces:
        algebra, ref = dual_algebra(space), FrozensetAlgebra(space)
        assert algebra.elements == tuple(ref.elements), space
        for xs in ref.elements:
            assert xs in algebra
            assert algebra.star(xs) == ref.star(xs), (space, xs)
            assert algebra.prime(xs) == ref.prime(xs), (space, xs)
            assert algebra.plus(xs) == ref.plus(xs), (space, xs)
            assert algebra.star(algebra.prime(xs)) == ref.prime_star(xs), (space, xs)
            for k in range(4):
                assert algebra.range_iterate(xs, k) == ref.range_iterate(xs, k)
        assert algebra.range_of() == ref.range_of(), space
        assert algebra.is_regular() == ref.is_regular(), space
        assert algebra.moisil_trivial() == ref.moisil_trivial(), space
        assert algebra.determination_trivial() == ref.determination_trivial(), space
        assert algebra.congruence_sets() == ref.congruence_sets(), space
        assert space.congruence_sets() == ref.congruence_sets(), space
        assert algebra.reconstruct_space() == ref.reconstruct_space(), space
        members = set(ref.elements)
        subsets = powerset(range(space.n))
        strangers = list(itertools.islice((s for s in subsets if s not in members), 4))
        strangers += [fs(space.n), fs(-1), fs(0, space.n), fs(0, -1)]
        for xs in strangers:
            assert xs not in algebra
            with pytest.raises(NotAnElement):
                algebra.mask_of(xs)
            with pytest.raises(NotAnElement):
                algebra.star(xs)


def test_contains_is_false_for_non_elements():
    algebra = dual_algebra(catalog.q(2))
    assert fs() in algebra and [0] in algebra and (1, 0) in algebra
    for junk in (5, None, fs(1), [0, 7], [-1], ["a"], [[0]], "0"):
        assert junk not in algebra


@pytest.mark.parametrize("method", ["range_iterate", "range_term_via_distance"])
@pytest.mark.parametrize("k", [-1, 1.5, "2", None, True])
def test_range_steps_reject_bad_k(method, k):
    algebra = dual_algebra(catalog.q6(1, 3))
    with pytest.raises(BadParams, match="step count must be a natural number"):
        getattr(algebra, method)(fs(), k)


@pytest.mark.parametrize("points", [["a", 1], [1, "a", None], 5, None])
def test_mixed_or_non_iterable_points_are_not_elements(points):
    """Points that do not sort, and a non-iterable, are no element: the
    typed error, not a TypeError from building its message."""
    algebra = dual_algebra(catalog.q(2))
    assert points not in algebra
    with pytest.raises(NotAnElement):
        algebra.star(points)
    with pytest.raises(NotAnElement):
        algebra.mask_of(points)
    with pytest.raises(NotAnElement):
        generate_subalgebra(algebra, [[0], points])


def test_not_an_element_message_lists_int_points_sorted():
    algebra = dual_algebra(catalog.q(2))
    for points, shown in (([1], "[1]"), ((2, 0), "[0, 2]"), ([1, True], "[1, True]")):
        with pytest.raises(NotAnElement) as caught:
            algebra.star(points)
        assert str(caught.value) == f"{shown} is not a downset of this space"


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        dual_algebra(catalog.q6(0, 6), limit=10)


def test_size_limit_is_inclusive_and_states_the_count():
    space = catalog.q6(2, 6)
    size = len(dual_algebra(space))
    assert len(dual_algebra(space, limit=size)) == size
    message = f"^more than {size - 1} downsets \\({size} exist\\)"
    with pytest.raises(SizeLimitExceeded, match=message):
        dual_algebra(space, limit=size - 1)


def test_size_membership_and_closures_list_nothing(monkeypatch, random_pm_space):
    """Size, membership, the operations, closures and the crown check read
    the down rows and the space's star and prime: no downset is listed.
    Membership agrees with the frozenset reference on random pm-spaces."""
    rng = random.Random(607)
    refs = [FrozensetAlgebra(random_pm_space(rng)) for _ in range(40)]
    family = generate_subalgebra(dual_algebra(catalog.range2_grid(8)), [fs(0, 1)]).generated

    def refuse(*args, **kwargs):
        raise AssertionError("the downsets were listed")

    monkeypatch.setattr(Poset, "downset_masks", refuse)
    algebra = dual_algebra(catalog.range2_grid(8))
    assert len(algebra) == 537
    assert fs(0, 1) in algebra and fs(8) not in algebra and algebra.mask_of([1, 0]) == 3
    assert algebra.star(fs(0)) == fs(1, 2, 3, 4, 5, 6, 7, 9)
    assert algebra.prime(fs(0)) == fs(*range(8), *range(9, 16))
    assert len(generate_subalgebra(algebra, [fs(0)])) == 537
    assert is_closed_family(algebra, family)
    assert crown_bound_check(3, 1)
    for ref in refs:
        algebra, n = dual_algebra(ref.space), ref.space.n
        assert len(algebra) == len(ref.elements)
        members = set(ref.elements)
        for k in range(n + 1):
            for xs in itertools.combinations(range(n), k):
                assert (xs in algebra) == (frozenset(xs) in members), (ref.space, xs)
    with pytest.raises(AssertionError, match="listed"):
        algebra.elements


def test_not_an_element():
    algebra = dual_algebra(catalog.q(2))
    with pytest.raises(NotAnElement):
        algebra.star(fs(1))  # an increasing, non-decreasing set


# -- pseudocomplement -----------------------------------------------------------


def test_star_of_zero_is_one():
    algebra = dual_algebra(catalog.q(5))
    assert algebra.star(algebra.zero) == algebra.one


def test_star_exceptional_singleton_is_principal_downset():
    # for a minimal element not below its own image, the pseudocomplement of
    # its singleton is the downset of the image
    space = catalog.q6(2, 4)
    algebra = dual_algebra(space)
    assert algebra.star(fs(0)) == space.poset.down_closure([4]) == fs(1, 2, 3, 4)


def test_star_grid_singleton():
    algebra = dual_algebra(catalog.range2_grid(5))
    assert algebra.star(fs(0)) == fs(1, 2, 3, 4, 6)


def test_pseudocomplement_law(regular_spaces):
    """x & y = 0 iff y <= x*, on every pair of downsets of small spaces."""
    for name, space in regular_spaces:
        if space.n > 8:
            continue
        algebra = dual_algebra(space)
        for xs in algebra.elements:
            star = algebra.star(xs)
            for ys in algebra.elements:
                assert (not xs & ys) == (ys <= star), (name, xs, ys)


# -- de Morgan operation -----------------------------------------------------------


def test_prime_swaps_bounds():
    algebra = dual_algebra(catalog.q6(1, 3))
    assert algebra.prime(algebra.zero) == algebra.one
    assert algebra.prime(algebra.one) == algebra.zero


def test_prime_is_involution(catalog_spaces):
    for _, space in catalog_spaces:
        algebra = dual_algebra(space)
        for xs in algebra.elements:
            assert algebra.prime(algebra.prime(xs)) == xs


def test_prime_grid_identity():
    algebra = dual_algebra(catalog.range2_grid(5))
    assert algebra.prime(algebra.star(fs(0))) == fs(0, 2, 3, 4, 5)


def test_de_morgan_laws():
    algebra = dual_algebra(catalog.q6(2, 4))
    for xs in algebra.elements:
        for ys in algebra.elements:
            assert algebra.prime(xs | ys) == algebra.prime(xs) & algebra.prime(ys)
            assert algebra.prime(xs & ys) == algebra.prime(xs) | algebra.prime(ys)


# -- dual pseudocomplement ----------------------------------------------------------


def test_plus_on_bounds():
    algebra = dual_algebra(catalog.q(4))
    assert algebra.plus(algebra.zero) == algebra.one
    assert algebra.plus(algebra.one) == algebra.zero


def test_plus_q2_singleton():
    # composing prime, star, prime on the singleton gives the top
    algebra = dual_algebra(catalog.q(2))
    assert algebra.plus(fs(0)) == algebra.one


def test_double_plus_star_below(catalog_spaces):
    """x >= x+* holds in every double p-algebra here: plus then star shrinks."""
    for _, space in catalog_spaces:
        algebra = dual_algebra(space)
        for xs in algebra.elements:
            assert algebra.star(algebra.prime(algebra.star(algebra.prime(xs)))) <= xs


# -- range iteration -------------------------------------------------------------


def test_range_iterate_zero_steps():
    algebra = dual_algebra(catalog.q6(0, 3))
    for xs in algebra.elements:
        assert algebra.range_iterate(xs, 0) == xs


def test_prime_star_chain_descends(catalog_spaces):
    for _, space in catalog_spaces:
        algebra = dual_algebra(space)
        for xs in algebra.elements:
            current = xs & algebra.star(algebra.prime(xs))
            for _ in range(4):
                nxt = algebra.star(algebra.prime(current))
                assert nxt <= current
                current = nxt


def test_distance_form_requires_regular():
    algebra = dual_algebra(catalog.nonregular_chain3())
    with pytest.raises(NotRegular):
        algebra.range_term_via_distance(frozenset(), 1)


def test_distance_form_base_cases():
    algebra = dual_algebra(catalog.q6(0, 3))
    for xs in algebra.elements:
        assert algebra.range_term_via_distance(xs, 0) == xs
    for k in range(4):
        assert algebra.range_term_via_distance(algebra.one, k) == algebra.one


def test_iterates_match_distance_form(regular_spaces):
    for name, space in regular_spaces:
        algebra = dual_algebra(space)
        for xs in algebra.elements:
            for k in range(5):
                assert algebra.range_iterate(xs, k) == algebra.range_term_via_distance(
                    xs, k
                ), (name, xs, k)


@pytest.mark.parametrize(
    "token,expected",
    [("q0", 0), ("q6:2,4", 1), ("crown:3", 2), ("grid:5", 2), ("q2", 0)],
)
def test_range_of(token, expected):
    space, _ = catalog.named_space(token)
    assert dual_algebra(space).range_of() == expected


def test_range_equals_width(regular_spaces):
    for name, space in regular_spaces:
        assert dual_algebra(space).range_of() == space.zeta_width(), name


def test_range_equals_width_on_random_regular_spaces():
    """``pmkit kind`` reads the range of a regular space off its zeta-width;
    the algebra's range is the oracle."""
    rng = random.Random(1515)
    for _ in range(150):
        space = random_regular_space(rng)
        assert space.is_regular()
        assert dual_algebra(space).range_of() == space.zeta_width(), space


# -- regularity ---------------------------------------------------------------------


def test_regular_flags():
    assert dual_algebra(catalog.q6(1, 4)).is_regular()
    assert dual_algebra(catalog.q(0)).is_regular()
    assert not dual_algebra(catalog.nonregular_chain3()).is_regular()


def test_moisil_and_determination():
    good = dual_algebra(catalog.q(2))
    assert good.moisil_trivial() and good.determination_trivial()
    bad = dual_algebra(catalog.nonregular_chain3())
    assert not bad.moisil_trivial() and not bad.determination_trivial()


def test_regularity_quadruple(catalog_spaces):
    for name, space in catalog_spaces:
        algebra = dual_algebra(space)
        flags = {
            algebra.is_regular(),
            algebra.moisil_trivial(),
            algebra.determination_trivial(),
            space.poset.height() <= 1,
        }
        assert len(flags) == 1, name


# -- congruences -----------------------------------------------------------------


def test_congruence_sets_q2():
    algebra = dual_algebra(catalog.q(2))
    assert algebra.congruence_sets() == (frozenset(), frozenset({0, 1}))


def test_congruence_sets_union():
    space = catalog.disjoint_union(catalog.q(2), catalog.q(2))
    assert len(dual_algebra(space).congruence_sets()) == 4


def test_congruence_sets_brute_force(catalog_spaces):
    """Against direct enumeration of all involution-closed sets whose
    minimal part is up-closed; the disjoint unions are not simple, so their
    families have more than the two trivial members."""
    union = catalog.disjoint_union
    unions = [
        ("q2+q2", union(catalog.q(2), catalog.q(2))),
        ("q1+q3", union(catalog.q(1), catalog.q(3))),
        ("q0+q0+q1", union(union(catalog.q(0), catalog.q(0)), catalog.q(1))),
        ("q3+q4", union(catalog.q(3), catalog.q(4))),
        ("q2+chain3", union(catalog.q(2), catalog.nonregular_chain3())),
    ]
    sizes = {}
    for name, space in catalog_spaces + unions:
        if space.n > 8:
            continue
        p = space.poset
        mins = Poset.set_of(p.minimals_mask())
        brute = set()
        for mask in range(1 << space.n):
            members = frozenset(i for i in range(space.n) if (mask >> i) & 1)
            if space.zeta_image(members) != members:
                continue
            if not up_closure(p, members & mins) <= members:
                continue
            brute.add(members)
        assert set(dual_algebra(space).congruence_sets()) == brute, name
        sizes[name] = len(brute)
    assert all(sizes[name] > 2 for name, _ in unions)


def reversed_chain(n):
    """The n-chain with the involution reversing it."""
    return Space(Poset.chain(n), tuple(reversed(range(n))))


def test_congruence_sets_of_reversed_chains():
    """An even n-chain has 2**((n-2)/2) + 1 congruence sets."""
    counts = [len(dual_algebra(reversed_chain(n)).congruence_sets()) for n in range(6, 15, 2)]
    assert counts == [5, 9, 17, 33, 65]


def test_congruence_sets_are_budgeted():
    """The 42-chain has 2**20 + 1 congruence sets, one past the budget."""
    algebra = dual_algebra(reversed_chain(42))
    with pytest.raises(SizeLimitExceeded, match="more than 1048576 congruence sets"):
        algebra.congruence_sets()


def test_congruence_sets_also_down_closed_on_maximals(catalog_spaces):
    for _, space in catalog_spaces:
        p = space.poset
        maxs = Poset.set_of(p.maximals_mask())
        for xs in dual_algebra(space).congruence_sets():
            assert p.down_closure(xs & maxs) <= xs


def test_simplicity_iff_two_congruences(regular_spaces):
    for name, space in regular_spaces:
        algebra = dual_algebra(space)
        assert (len(algebra.congruence_sets()) == 2) == space.is_simple(), name
    union = catalog.disjoint_union(catalog.q(2), catalog.q(2))
    assert not union.is_simple()
    assert len(dual_algebra(union).congruence_sets()) != 2


# -- duality round trip ---------------------------------------------------------


def test_point_ideals_are_prime():
    """Each per-point ideal is a prime ideal of the element lattice, and the
    prime ideals derived from join-irreducible elements are exactly these."""
    algebra = dual_algebra(catalog.q6(1, 3))
    elements = algebra.elements
    k = len(elements)
    index = {xs: i for i, xs in enumerate(elements)}
    point_ideals = {
        frozenset(i for i, xs in enumerate(elements) if x not in xs)
        for x in range(algebra.space.n)
    }
    for ideal in point_ideals:
        members = [elements[i] for i in sorted(ideal)]
        assert members, "prime ideals are non-empty here (they avoid the top)"
        for xs in members:
            for ys in elements:
                if ys <= xs:
                    assert index[ys] in ideal
        for xs in members:
            for ys in members:
                assert index[xs | ys] in ideal
        complement = [elements[i] for i in range(k) if i not in ideal]
        for xs in complement:
            for ys in complement:
                assert index[xs & ys] not in ideal
    # independent derivation: one prime ideal per join-irreducible element
    join_irreducible = []
    for xs in elements:
        strictly_below = [ys for ys in elements if ys < xs]
        if strictly_below and any(
            all(zs <= ys for zs in strictly_below) for ys in strictly_below
        ):
            join_irreducible.append(xs)
    derived = {
        frozenset(i for i, ys in enumerate(elements) if not xs <= ys)
        for xs in join_irreducible
    }
    assert derived == point_ideals


def test_reconstructed_involution_matches_pointwise():
    space = catalog.q6(2, 4)
    algebra = dual_algebra(space)
    rebuilt = algebra.reconstruct_space()
    assert tuple(rebuilt.zeta) == tuple(space.zeta)
    assert rebuilt.poset == space.poset


def test_round_trip_isomorphism(catalog_spaces):
    from pmkit import is_pm_isomorphic

    for name, space in catalog_spaces:
        algebra = dual_algebra(space)
        assert is_pm_isomorphic(algebra.reconstruct_space(), space), name
