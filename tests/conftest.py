import pytest

import support
from pmkit import Poset, Space, acceptance, dual_algebra, generate_subalgebra


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
    """``random_pm_space(rng)``: the seeded space generator
    :func:`support.random_pm_space`, as a fixture for the modules that take
    it as one."""
    return support.random_pm_space


@pytest.fixture(scope="session")
def relabel():
    """``relabel(space, perm)``: :func:`support.relabel`, the copy of
    ``space`` in which point ``i`` is called ``perm[i]``, as a fixture."""
    return support.relabel
