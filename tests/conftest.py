import pytest

from pmkit import Poset, Space, catalog, dual_algebra, generate_subalgebra


def small_catalog():
    """Named spaces with at most 12 elements, used by exhaustive sweeps."""
    out = [(f"q{i}", catalog.q(i)) for i in range(6)]
    for n in range(3, 7):
        for m in range(n + 1):
            out.append((f"q6:{m},{n}", catalog.q6(m, n)))
    out += [
        ("grid:5", catalog.range2_grid(5)),
        ("grid:6", catalog.range2_grid(6)),
        ("crown:2", catalog.crown_pair(2)),
        ("crown:3", catalog.crown_pair(3)),
        ("chain3", catalog.nonregular_chain3()),
    ]
    return out


def regular_small_catalog():
    return [(name, s) for name, s in small_catalog() if s.is_regular()]


@pytest.fixture(scope="session")
def catalog_spaces():
    return small_catalog()


@pytest.fixture(scope="session")
def regular_spaces():
    return regular_small_catalog()


@pytest.fixture(scope="session")
def field_of_subsets():
    """``field_of_subsets(k, generators)``: the least field of subsets of
    ``range(k)`` containing the generators, generated in the dual algebra
    of the discrete space on ``k`` points (star and prime both complement)."""

    def close(k, generators):
        discrete = dual_algebra(Space(Poset.antichain(k), range(k)))
        return generate_subalgebra(discrete, generators).generated

    return close
