"""Closure generation, growth experiments, finiteness ceilings."""

import random

import pytest

from pmkit import catalog, dual_algebra
from pmkit.errors import BadParams, NotAnElement, Overflow
from pmkit.subalgebra import (
    crown_bound_check,
    generate_subalgebra,
    is_closed_family,
    local_finiteness_bound,
    one_generator_growth,
)


def fs(*xs):
    return frozenset(xs)


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


def test_closure_of_closed_family_is_fixpoint(field_of_subsets):
    members = catalog.kf_subalgebra_q6(2, 4, field_of_subsets(4, [fs(0, 1)]))
    algebra = dual_algebra(catalog.q6(2, 4))
    result = generate_subalgebra(algebra, members)
    assert set(result.generated) == set(members)


# -- growth in the grid family -------------------------------------------------------


def test_growth_meets_bound():
    for n in (5, 6, 7, 8):
        assert one_generator_growth(n) >= n


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
    with pytest.raises(BadParams):
        local_finiteness_bound(0)


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
