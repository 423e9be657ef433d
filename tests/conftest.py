import pytest

from pmkit import Poset, Space, acceptance, dual_algebra, generate_subalgebra
from pmkit.order import iter_bits


@pytest.fixture(scope="session")
def catalog_spaces():
    """Named spaces with at most 12 elements, used by exhaustive sweeps."""
    return acceptance.catalog_spaces()


@pytest.fixture(scope="session")
def regular_spaces():
    return acceptance.regular_catalog_spaces()


@pytest.fixture(scope="session")
def field_of_subsets():
    """``field_of_subsets(k, generators)``: the least field of subsets of
    ``range(k)`` containing the generators, generated in the dual algebra
    of the discrete space on ``k`` points (star and prime both complement)."""

    def close(k, generators):
        discrete = dual_algebra(Space(Poset.antichain(k), range(k)))
        return generate_subalgebra(discrete, generators).generated

    return close


@pytest.fixture(scope="session")
def random_pm_space():
    """``random_pm_space(rng)``: a random order on ``k <= 4`` points glued
    below its order dual, zeta swapping the two copies, plus up to two
    zeta-fixed points between them (at most 10 points)."""

    def build(rng):
        k = rng.randint(1, 4)
        fixed = rng.randint(0, min(2, 10 - 2 * k))
        chain, glue = rng.choice((0.0, 0.3, 0.6)), rng.choice((0.0, 0.2, 0.5))
        pairs = []
        for i in range(k):
            for j in range(k):
                # i <= j in the lower copy, i <= zeta(j) across; each pair
                # comes with its zeta-mirror so that zeta reverses the order.
                if i < j and rng.random() < chain:
                    pairs += [(i, j), (k + j, k + i)]
                if rng.random() < glue:
                    pairs += [(i, k + j), (j, k + i)]
        for z in range(2 * k, 2 * k + fixed):
            for i in rng.sample(range(k), rng.randint(0, k)):
                pairs += [(i, z), (z, k + i)]
        zeta = [k + i for i in range(k)] + list(range(k))
        zeta += range(2 * k, 2 * k + fixed)
        return Space(Poset.from_pairs(2 * k + fixed, pairs), zeta)

    return build


@pytest.fixture(scope="session")
def relabel():
    """``relabel(space, perm)``: the copy of ``space`` in which point ``i``
    is called ``perm[i]``."""

    def copy(space, perm):
        up = [0] * space.n
        for i in range(space.n):
            up[perm[i]] = sum(1 << perm[j] for j in iter_bits(space.poset.up_mask(i)))
        zeta = [0] * space.n
        for i in range(space.n):
            zeta[perm[i]] = perm[space.zeta[i]]
        return Space(Poset(up), zeta)

    return copy
