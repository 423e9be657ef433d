"""Spaces: validation, classification flags, widths, simplicity."""

import random

import pytest

from pmkit import Distance, Poset, Space, catalog, dual_algebra
from pmkit.errors import (
    BadParams,
    IndexOutOfRange,
    InvolutionBroken,
    NotRegular,
    OrderReversalBroken,
)


# -- validation ------------------------------------------------------------------


def test_non_involutive_rejected():
    with pytest.raises(InvolutionBroken) as err:
        Space(Poset.antichain(3), (1, 2, 0))
    assert err.value.witness is not None


def test_order_reversal_rejected():
    # identity involution on a chain does not reverse the order
    with pytest.raises(OrderReversalBroken) as err:
        Space(Poset.chain(2), (0, 1))
    assert err.value.witness == (0, 1)


@pytest.mark.parametrize(
    "zeta", [(True, False), (1.0, 0), ("1", 0), (1, None), (1,), (1, 2)],
    ids=["bool", "float", "str", "none", "short", "high"],
)
def test_zeta_entries_must_be_indices(zeta):
    with pytest.raises(IndexOutOfRange, match="zeta must be a permutation"):
        Space(Poset.antichain(2), zeta)


def test_validate_q2():
    kind = Space(Poset.chain(2), (1, 0)).kind()
    assert kind.regular and kind.kleene and kind.zeta_width == 0


def test_validate_q4_not_kleene():
    kind = catalog.q(4).kind()
    assert kind.regular and not kind.kleene


def test_validate_chain3_not_regular():
    kind = catalog.nonregular_chain3().kind()
    assert not kind.regular


# -- involution images -------------------------------------------------------------


def test_zeta_image_involution(catalog_spaces):
    for _, space in catalog_spaces:
        full = frozenset(range(space.n))
        assert space.zeta_image(full) == full
        for x in range(space.n):
            single = frozenset({x})
            assert space.zeta_image(space.zeta_image(single)) == single


def test_zeta_image_q6_levels():
    space = catalog.q6(1, 3)
    mins = Poset.set_of(space.poset.minimals_mask())
    assert space.zeta_image(mins) == Poset.set_of(space.poset.maximals_mask())


# -- zeta distance and width ---------------------------------------------------------


def test_zeta_distance_to_own_image_is_zero(catalog_spaces):
    for _, space in catalog_spaces:
        for x in range(space.n):
            assert space.zeta_distance(x, space.zeta[x]) == 0


def test_zeta_distance_crown():
    space = catalog.crown_pair(2)
    # between the two minimal families: distance 2 directly, 3 via the image
    assert space.poset.distance(0, 2) == Distance(2)
    assert space.poset.distance(0, space.zeta[2]) == Distance(3)
    assert space.zeta_distance(0, 2) == Distance(2)


def test_zeta_distance_grid():
    space = catalog.range2_grid(5)
    assert space.zeta_distance(5, 6) == Distance(2)


def test_zeta_distance_symmetries(catalog_spaces):
    for _, space in catalog_spaces:
        z = space.zeta
        for x in range(space.n):
            for y in range(space.n):
                d = space.zeta_distance(x, y)
                assert d == space.zeta_distance(z[x], z[y])
                assert d == space.zeta_distance(x, z[y])
                assert d == space.zeta_distance(z[x], y)
                assert space.poset.distance(x, y) == space.poset.distance(z[x], z[y])


@pytest.mark.parametrize(
    "token,width",
    [
        ("q0", 0), ("q1", 0), ("q2", 0),
        ("q3", 1), ("q4", 1), ("q5", 1),
        ("q6:0,3", 1), ("q6:2,4", 1), ("q6:6,6", 1),
        ("grid:5", 2), ("grid:6", 2),
        ("crown:2", 2), ("crown:3", 2),
    ],
)
def test_zeta_width_values(token, width):
    space, _ = catalog.named_space(token)
    assert space.zeta_width() == width


def test_zeta_width_degenerate():
    assert Space(Poset.antichain(0), ()).zeta_width() == 0
    assert catalog.q(0).zeta_width() == 0


# -- order components under the involution ----------------------------------------


def test_component_images_are_components(catalog_spaces):
    for _, space in catalog_spaces:
        blocks = set(space.poset.order_components())
        for block in blocks:
            image = space.zeta_image(block)
            assert image in blocks
            assert image == block or not (image & block)


# -- simplicity ----------------------------------------------------------------------


def test_simple_q3_with_witness():
    space = catalog.q(3)
    witness = space.simple_component()
    assert witness is not None
    assert witness | space.zeta_image(witness) == frozenset(range(4))


def test_not_simple_union_of_two_copies():
    space = catalog.disjoint_union(catalog.q(2), catalog.q(2))
    assert not space.is_simple()


def test_simple_q6():
    assert catalog.q6(2, 4).is_simple()


def test_simple_requires_regular():
    with pytest.raises(NotRegular):
        catalog.nonregular_chain3().simple_component()


def test_simple_in_mn_examples():
    assert catalog.q(5).simple_in_mn(1)
    assert catalog.crown_pair(2).simple_in_mn(2)
    assert not catalog.range2_grid(5).simple_in_mn(1)


def test_simple_in_mn_requires_regular():
    with pytest.raises(NotRegular):
        catalog.nonregular_chain3().simple_in_mn(2)


@pytest.mark.parametrize("bound", [-1, 1.5, "2", None, True])
def test_simple_in_mn_rejects_bad_bounds(bound):
    with pytest.raises(BadParams, match="bound must be a natural number"):
        catalog.q(5).simple_in_mn(bound)


def test_simple_in_mn_decomposes(regular_spaces):
    """Pairwise bounded distance iff simple with width within the bound."""
    for _, space in regular_spaces:
        width = space.zeta_width()
        for bound in range(4):
            expected = space.is_simple() and width <= bound
            assert space.simple_in_mn(bound) == expected


def test_width_and_mn_match_pairwise_definitions(regular_spaces):
    """One distance sweep per point gives what the pairwise definitions
    give, also where points lie in different components."""
    union = catalog.disjoint_union(catalog.q(3), catalog.range2_grid(5))
    assert union.poset.distance(0, union.n - 1).value is None
    for name, space in regular_spaces + [("q3+grid:5", union)]:
        n, p, zeta = space.n, space.poset, space.zeta
        finite = [
            d.value
            for x in range(n)
            for y in range(n)
            if (d := space.zeta_distance(x, y)).value is not None
        ]
        assert space.zeta_width() == max(finite, default=0), name
        for bound in range(4):
            pairwise = all(
                p.distance(x, y) <= bound or p.distance(x, zeta[y]) <= bound
                for x in range(n)
                for y in range(n)
            )
            assert space.simple_in_mn(bound) == pairwise, (name, bound)


def test_kleene_flag_definition(catalog_spaces):
    for _, space in catalog_spaces:
        expected = all(
            space.poset.leq(x, space.zeta[x]) or space.poset.leq(space.zeta[x], x)
            for x in range(space.n)
        )
        assert space.is_kleene() == expected


# -- Distance, leq and height references -------------------------------------------
#
# The space-layer questions as they read through per-point ``Distance`` rows,
# ``Poset.leq`` and ``Poset.height``; the library reads the order masks and
# the frontier sweep.


def zeta_rows(space):
    return [space.poset.distance_levels((x, z)) for x, z in enumerate(space.zeta)]


def ref_zeta_width(space):
    return max((d.value for row in zeta_rows(space) for d in row if d.value is not None), default=0)


def ref_simple_in_mn(space, bound):
    return all(d <= bound for row in zeta_rows(space) for d in row)


def ref_range_term(space, xs, k):
    complement = frozenset(range(space.n)) - xs
    target = space.zeta_image(complement) if k % 2 else complement
    levels = space.poset.distance_levels(target)
    return frozenset(x for x, d in enumerate(levels) if d > k)


def ref_zeta_distance(space, x, y):
    return min(space.poset.distance(x, y), space.poset.distance(x, space.zeta[y]))


def ref_is_regular(space):
    return space.poset.height() <= 1


def ref_is_kleene(space):
    p = space.poset
    return all(p.leq(x, z) or p.leq(z, x) for x, z in enumerate(space.zeta))


def test_mask_questions_match_distance_references(random_pm_space):
    """Width, pairwise bounds, the distance form of the range iterates and
    both flags agree with the references on seeded random spaces, small
    disjoint unions of them and the empty space."""
    rng = random.Random(808)
    spaces = [random_pm_space(rng) for _ in range(150)]
    small = [space for space in spaces if space.n <= 5]
    spaces += [catalog.disjoint_union(a, b) for a, b in zip(small, small[1:])][:40]
    spaces.append(Space(Poset.antichain(0), ()))
    tall = sum(space.poset.height() >= 2 for space in spaces)
    with_fixed = sum(any(z == x for x, z in enumerate(space.zeta)) for space in spaces)
    disconnected = sum(len(space.poset.order_components()) > 1 for space in spaces)
    assert tall >= 20 and with_fixed >= 20 and disconnected >= 20
    for space in spaces:
        regular = ref_is_regular(space)
        assert space.is_regular() == regular, space
        assert space.is_kleene() == ref_is_kleene(space), space
        assert space.zeta_width() == ref_zeta_width(space), space
        algebra = dual_algebra(space)
        if not regular or space.n == 0:
            with pytest.raises(NotRegular):
                space.simple_in_mn(1)
        else:
            for bound in range(4):
                assert space.simple_in_mn(bound) == ref_simple_in_mn(space, bound)
        if not regular:
            with pytest.raises(NotRegular):
                algebra.range_term_via_distance(frozenset(), 1)
            continue
        for xs in algebra.elements:
            for k in range(5):
                want = ref_range_term(space, xs, k)
                assert algebra.range_term_via_distance(xs, k) == want, (space, xs, k)


def test_zeta_distance_matches_two_sweep_reference(random_pm_space):
    """One sweep from ``{y, zeta y}`` gives the min of the two distances, and
    bad indices raise the same messages, ``x`` checked first."""
    rng = random.Random(909)
    for _ in range(150):
        space = random_pm_space(rng)
        for x in range(space.n):
            for y in range(space.n):
                assert space.zeta_distance(x, y) == ref_zeta_distance(space, x, y), space
        n = space.n
        for x, y in ((n, 0), (0, n), (-1, n), (n, -1), (True, 0), (0, False), (0, "a")):
            with pytest.raises(IndexOutOfRange) as want:
                ref_zeta_distance(space, x, y)
            with pytest.raises(IndexOutOfRange) as got:
                space.zeta_distance(x, y)
            assert str(got.value) == str(want.value), (x, y)
