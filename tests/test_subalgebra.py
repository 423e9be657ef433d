"""Closure generation, growth experiments, finiteness ceilings."""

import random
from dataclasses import dataclass

import pytest

from pmkit import acceptance, algebra as algebra_module, catalog, dual_algebra, order
from pmkit import space as space_module, subalgebra
from pmkit.errors import BadParams, NotAnElement, Overflow, SizeLimitExceeded
from pmkit.subalgebra import (
    ClosureResult,
    crown_bound_ceiling,
    crown_bound_check,
    generate_subalgebra,
    is_closed_family,
    local_finiteness_bound,
    one_generator_growth,
)
from support import fs


@dataclass(frozen=True)
class Saturation:
    """The reference closure's result: its members as frozensets, in the
    order it sorts them itself, so the comparison also checks the order
    ``ClosureResult.generated`` lists."""

    generated: tuple[frozenset[int], ...]
    generator_count: int
    op_applications: int


def saturate(algebra, gens):
    """Reference closure by pairwise saturation: apply the unary operations
    to every fresh element and meet and join it with everything generated
    so far, until nothing new appears."""
    gens = [order.Poset.set_of(algebra.mask_of(g)) for g in gens]
    generated: set[frozenset[int]] = {algebra.zero, algebra.one}
    generated.update(gens)
    worklist = list(generated)
    ops = 0
    while worklist:
        fresh: set[frozenset[int]] = set()
        snapshot = list(generated)
        for xs in worklist:
            for unary in (algebra.star, algebra.prime):
                ops += 1
                ys = unary(xs)
                if ys not in generated:
                    fresh.add(ys)
            for others in snapshot:
                ops += 2
                for zs in (xs & others, xs | others):
                    if zs not in generated:
                        fresh.add(zs)
        fresh -= generated
        generated |= fresh
        worklist = list(fresh)
    out = sorted(generated, key=lambda s: (len(s), tuple(sorted(s))))
    return Saturation(tuple(out), len(gens), ops)


# -- closure basics ---------------------------------------------------------------


def test_empty_generators_give_constants():
    algebra = dual_algebra(catalog.q6(1, 3))
    result = generate_subalgebra(algebra, [])
    assert set(result.generated) == {algebra.zero, algebra.one}
    assert result.generator_count == 0


def test_closure_contains_generators_and_is_closed():
    algebra = dual_algebra(catalog.q6(2, 4))
    gens = [fs(0), fs(0, 1, 2)]
    result = generate_subalgebra(algebra, gens)
    assert all(g in result.generated for g in gens)
    assert is_closed_family(algebra, result.generated)
    assert result.op_applications > 0


def test_closure_rejects_non_elements():
    algebra = dual_algebra(catalog.q(2))
    with pytest.raises(NotAnElement):
        generate_subalgebra(algebra, [fs(1)])


def test_closure_rejects_collections_that_are_no_elements():
    """A generator list or family that is no collection of point sets is
    refused as no element, not with a raw TypeError."""
    algebra = dual_algebra(catalog.q6(2, 4))
    with pytest.raises(NotAnElement, match="^5 is not a collection of elements$"):
        generate_subalgebra(algebra, 5)
    with pytest.raises(NotAnElement, match=r"^\[5\] is not a family of sets of points$"):
        is_closed_family(algebra, [5])
    with pytest.raises(NotAnElement, match="^5 is not a family of sets of points$"):
        is_closed_family(algebra, 5)
    with pytest.raises(NotAnElement):
        generate_subalgebra(algebra, [5])


def test_closure_rejects_bool_points():
    """True is not point 1: a bool point is no element, as a bool map image
    is no point."""
    algebra = dual_algebra(catalog.q6(1, 3))
    assert algebra.mask_of([1]) == 2 and algebra.mask_of([1, 0]) == 3
    for points in ([True], [True, 0], [1, True], [False]):
        assert points not in algebra
        with pytest.raises(NotAnElement):
            algebra.mask_of(points)
        with pytest.raises(NotAnElement):
            generate_subalgebra(algebra, [points])


def test_closure_result_equality_and_hash():
    """Results compare and hash by member masks, generator count and op
    applications."""
    algebra = dual_algebra(catalog.q6(2, 4))
    first = generate_subalgebra(algebra, [fs(0)])
    again = generate_subalgebra(algebra, [[0]])
    assert first == again and not first != again
    assert hash(first) == hash(again)
    assert len({first, again}) == 1
    twice = generate_subalgebra(algebra, [fs(0), fs(0)])
    assert twice.generated == first.generated and twice != first
    other = generate_subalgebra(algebra, [fs(0, 1)])
    assert other != first
    assert ClosureResult(first._masks, 1, first.op_applications) == first
    assert ClosureResult(first._masks, 1, first.op_applications + 1) != first
    assert first != first.generated and first != None  # noqa: E711
    assert first.generated is first.generated
    with pytest.raises(AttributeError):
        first.op_applications = 0


def _forbid_listing(monkeypatch):
    """Make any frozenset listing of masks raise."""

    def listing(*args):
        raise AssertionError("members were listed as frozensets")

    monkeypatch.setattr(order.Poset, "set_of", staticmethod(listing))
    for module in (order, space_module, subalgebra):
        monkeypatch.setattr(module, "canonical_sort", listing)


def test_closure_size_and_checks_list_no_frozensets(monkeypatch):
    """Size, equality, hash, growth and the closed-family test stay on
    masks."""
    algebra = dual_algebra(catalog.range2_grid(6))
    family = generate_subalgebra(algebra, [fs(0, 1)]).generated
    _forbid_listing(monkeypatch)
    result = generate_subalgebra(algebra, [fs(0)])
    assert len(result) == 145 and result.op_applications > 0
    assert result == generate_subalgebra(algebra, [fs(0)])
    assert hash(result) == hash(generate_subalgebra(algebra, [fs(0)]))
    assert one_generator_growth(10) == 2081
    assert is_closed_family(algebra, family)
    assert not is_closed_family(algebra, family[:-1])
    monkeypatch.undo()
    assert len(result.generated) == 145


def test_closure_operator_laws():
    """Extensive, monotone and idempotent on sampled generator sets."""
    algebra = dual_algebra(catalog.q6(1, 4))
    rng = random.Random(7)
    pool = list(algebra.elements)
    for _ in range(6):
        small = rng.sample(pool, 2)
        large = small + rng.sample(pool, 2)
        close_small = set(generate_subalgebra(algebra, small).generated)
        close_large = set(generate_subalgebra(algebra, large).generated)
        assert set(small) <= close_small
        assert close_small <= close_large
        again = set(generate_subalgebra(algebra, sorted(close_small, key=sorted)).generated)
        assert again == close_small


def test_is_closed_family_matches_pairwise_check():
    """A family is closed iff it holds the constants, the star and prime of
    each member and the meet and join of each pair: generated families
    pass, the same families with one member dropped mostly fail."""
    algebra = dual_algebra(catalog.q6(2, 4))
    rng = random.Random(11)
    pool = list(algebra.elements)

    def pairwise(family):
        sets = set(family)
        return {algebra.zero, algebra.one} <= sets and all(
            {algebra.star(xs), algebra.prime(xs)} <= sets
            and all(xs & ys in sets and xs | ys in sets for ys in sets)
            for xs in sets
        )

    closed = [generate_subalgebra(algebra, rng.sample(pool, 2)).generated for _ in range(8)]
    families = closed + [rng.sample(pool, rng.randint(2, 6)) for _ in range(8)]
    families += [[xs for xs in family if xs != rng.choice(family)] for family in closed]
    verdicts = [is_closed_family(algebra, family) for family in families]
    assert verdicts == [pairwise(family) for family in families]
    assert True in verdicts and False in verdicts
    with pytest.raises(NotAnElement):
        is_closed_family(algebra, [fs(), fs(4)])


def test_closure_of_closed_family_is_fixpoint(field_of_subsets):
    members = catalog.kf_subalgebra_q6(2, 4, field_of_subsets(4, [fs(0, 1)]))
    algebra = dual_algebra(catalog.q6(2, 4))
    result = generate_subalgebra(algebra, members)
    assert set(result.generated) == set(members)


def test_closure_matches_saturation_reference(random_pm_space):
    """Least-member closure equals pairwise saturation, element for element,
    on the catalog and on seeded random pm-spaces."""
    rng = random.Random(2024)
    spaces = [space for _, space in acceptance.catalog_spaces()]
    spaces += [random_pm_space(rng) for _ in range(150)]
    tall = sum(space.poset.height() >= 2 for space in spaces)
    with_fixed = sum(any(z == x for x, z in enumerate(space.zeta)) for space in spaces)
    assert tall >= 20 and with_fixed >= 20
    for space in spaces:
        algebra = dual_algebra(space)
        pool = list(algebra.elements)
        gen_sets = [[]] + [[xs] for xs in rng.sample(pool, min(4, len(pool)))]
        gen_sets += [rng.sample(pool, min(rng.randint(2, 3), len(pool))) for _ in range(3)]
        for gens in gen_sets:
            fast = generate_subalgebra(algebra, gens)
            slow = saturate(algebra, gens)
            assert fast.generated == slow.generated, (space, gens)
            assert fast.generator_count == slow.generator_count


def test_closure_matches_saturation_on_relabelled_grids(relabel):
    """The benchmark's inputs in small: seeded relabellings of the width-2
    grid, closed from ``{x0}`` (the whole algebra) and from 2-3 drawn
    generators, equal the pairwise saturation element for element."""
    rng = random.Random(38)
    for n in (5, 6):
        for _ in range(3):
            perm = rng.sample(range(2 * n), 2 * n)
            algebra = dual_algebra(relabel(catalog.range2_grid(n), perm))
            pool = list(algebra.elements)
            gen_sets = [[fs(perm[0])]] + [rng.sample(pool, rng.randint(2, 3)) for _ in range(4)]
            for gens in gen_sets:
                fast = generate_subalgebra(algebra, gens)
                slow = saturate(algebra, gens)
                assert fast.generated == slow.generated, (n, perm, gens)
                assert fast.generator_count == slow.generator_count


def test_one_subalgebra_lists_one_mask_tuple(random_pm_space):
    """The least members, and so the mask tuple a result compares and hashes
    by, depend on the generated subalgebra alone: closing again from the
    closure's own members, shuffled, lists the same tuple."""
    rng = random.Random(42)
    cases = []
    for n in (5, 6, 7):
        algebra = dual_algebra(catalog.range2_grid(n))
        pool = list(algebra.elements)
        cases.append((algebra, [fs(0)]))
        cases += [(algebra, rng.sample(pool, rng.randint(1, 3))) for _ in range(3)]
    for _ in range(30):
        algebra = dual_algebra(random_pm_space(rng))
        pool = list(algebra.elements)
        cases.append((algebra, rng.sample(pool, min(rng.randint(1, 3), len(pool)))))
    proper = 0
    for algebra, gens in cases:
        first = generate_subalgebra(algebra, gens)
        members = list(first.generated)
        rng.shuffle(members)
        again = generate_subalgebra(algebra, members)
        assert again._masks == first._masks, (algebra.space, gens)
        proper += len(first) < len(algebra)
    assert proper >= 10


@pytest.mark.parametrize("n,size,ops", [(5, 77, 114), (7, 277, 334), (10, 2081, 2168)])
def test_closure_counts_are_pinned(n, size, ops):
    """``{x0}`` closes to the whole grid algebra.  ``op_applications`` is two
    per distinct least member checked plus one join per member listed past
    the empty union, whatever order the closure applies the images in."""
    result = generate_subalgebra(dual_algebra(catalog.range2_grid(n)), [fs(0)])
    assert (len(result), result.op_applications) == (size, ops)


# -- growth in the grid family -------------------------------------------------------


def test_growth_meets_bound():
    """One minimal singleton generates the whole grid algebra."""
    for n in range(5, 13):
        size = one_generator_growth(n)
        assert size == len(dual_algebra(catalog.range2_grid(n))) >= n


def test_growth_sizes():
    assert [one_generator_growth(n) for n in range(9, 13)] == [1053, 2081, 4133, 8233]
    sizes = [one_generator_growth(n) for n in range(13, 17)]
    assert sizes == [16429, 32817, 65589, 131129]
    assert sizes == [2 ** (n + 1) + 4 * n - 7 for n in range(13, 17)]


def test_growth_builds_no_algebra(monkeypatch):
    """Growth and the generator-free crown check run the closure on the
    space alone: no downset enumeration, no algebra."""

    def refuse(*args, **kwargs):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(order.Poset, "downset_masks", refuse)
    monkeypatch.setattr(algebra_module.Algebra, "__init__", refuse)
    assert one_generator_growth(10) == 2081
    assert crown_bound_check(3, 0)


def test_growth_limit_is_inclusive():
    assert one_generator_growth(12, limit=8233) == 8233
    with pytest.raises(SizeLimitExceeded):
        one_generator_growth(12, limit=8232)


def test_growth_closure_contains_every_minimal_singleton():
    space = catalog.range2_grid(5)
    algebra = dual_algebra(space)
    result = generate_subalgebra(algebra, [fs(0)])
    members = set(result.generated)
    for i in range(5):
        assert fs(i) in members


def test_growth_derivation_chain():
    """The witness derivation: star-prime-star of a minimal singleton meets
    the previous singleton's pseudocomplement in the next singleton."""
    algebra = dual_algebra(catalog.range2_grid(6))
    star, prime = algebra.star, algebra.prime
    assert star(prime(star(fs(0)))) == fs(1)
    for i in range(1, 5):
        assert star(prime(star(fs(i)))) & star(fs(i - 1)) == fs(i + 1)


# -- ceilings -----------------------------------------------------------------------


def test_local_finiteness_bound_values():
    assert local_finiteness_bound(1) == 48
    assert local_finiteness_bound(2) == 3 * 2**16 == 196608


def test_local_finiteness_bound_overflow():
    with pytest.raises(Overflow):
        local_finiteness_bound(3)
    with pytest.raises(BadParams, match="^the bound is stated for at least one generator$"):
        local_finiteness_bound(0)
    with pytest.raises(BadParams, match=r"^only N in \{0, 1\} is representable here$"):
        crown_bound_ceiling(2)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda value: catalog.q(2).simple_in_mn(value), "bound"),
        (local_finiteness_bound, "generators"),
        (crown_bound_ceiling, "generators"),
    ],
    ids=["simple_in_mn", "local_finiteness_bound", "crown_bound_ceiling"],
)
@pytest.mark.parametrize("value", [-1, 0.5, 1.5, "1", None, True])
def test_natural_parameters_reject_non_naturals(call, name, value):
    with pytest.raises(BadParams, match=f"^{name} must be a natural number, got "):
        call(value)


def test_single_generator_closures_within_ceiling():
    ceiling = local_finiteness_bound(1)
    for n in (3, 4):
        for m in range(n + 1):
            algebra = dual_algebra(catalog.q6(m, n))
            for xs in algebra.elements:
                assert len(generate_subalgebra(algebra, [xs])) <= ceiling


def test_single_generator_closure_lands_in_recipe_family(field_of_subsets):
    """Every one-generator closure embeds in the closed family built from
    the generator's traces on the minimal level."""
    space = catalog.q6(2, 4)
    algebra = dual_algebra(space)
    minimal_level = frozenset(range(4))
    for xs in algebra.elements:
        traces = [
            xs & minimal_level,
            frozenset(space.zeta[i] for i in xs if space.zeta[i] in minimal_level),
        ]
        family = field_of_subsets(4, traces)
        members = set(catalog.kf_subalgebra_q6(2, 4, family))
        closure = generate_subalgebra(algebra, [xs])
        assert set(closure.generated) <= members


def test_crown_bound_check():
    assert crown_bound_check(2, 0)
    assert crown_bound_check(2, 1)
    assert crown_bound_check(3, 1)
    assert crown_bound_check(4, 1)
    with pytest.raises(BadParams):
        crown_bound_check(5, 1)
    with pytest.raises(BadParams):
        crown_bound_check(2, 2)
