"""Subalgebra generation by closure, and finiteness/growth experiments.

The closure works on element masks, with the algebra's own star and prime,
through the least generated member containing each point.  Those least
members fix the generated {0,1}-sublattice (its members are exactly their
unions), so closing under the two unary operations only needs each distinct
least member checked once; the members are listed by unions and become
frozensets, in the canonical order, only at the end.  Growth experiments on
the width-2 grid family show one generator producing at least ``n``
elements, the finite shadow of a free algebra being infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import catalog
from .algebra import Algebra, dual_algebra
from .errors import BadParams, Overflow, check_natural
from .order import DOWNSET_LIMIT, Poset, canonical_sort, iter_bits


@dataclass(frozen=True)
class ClosureResult:
    """A generated subalgebra, in canonical element order.

    ``op_applications`` counts the star and prime evaluations and the joins
    made by the closure.
    """

    generated: tuple[frozenset[int], ...]
    generator_count: int
    op_applications: int

    def __len__(self) -> int:
        return len(self.generated)


def generate_subalgebra(algebra: Algebra, gens: Iterable[Iterable[int]]) -> ClosureResult:
    """Least subset of the algebra containing the generators and constants,
    closed under meet, join, pseudocomplement and the de Morgan operation."""
    gens = [algebra.mask_of(g) for g in gens]
    top = algebra.space.poset.all_mask
    # least[i] is the least generated member containing point i: the meet of
    # the top and every generator containing i (Birkhoff).  The generated
    # {0,1}-sublattice is exactly the set of unions of these blocks (0 is the
    # empty union, the top the union of all):
    # k in least[i] gives least[k] <= least[i], so meets of unions are again
    # unions, and a mask y is a member iff least[i] <= y for every i in y.
    least = [top] * algebra.space.n
    checked: set[int] = set()
    ops = 0

    def refine(g: int) -> None:
        for i in iter_bits(g):
            least[i] &= g

    for g in gens:
        refine(g)
    # Star and prime turn joins into meets ((a | b)* = a* & b* and
    # (a | b)' = a' & b'), so the lattice is closed under both once the
    # images of every block are members.  Members only accumulate, so a
    # block that passed once stays passed.
    while fresh := set(least) - checked:
        for block in fresh:
            checked.add(block)
            ops += 2
            for y in algebra.images(block):
                if any(least[i] & ~y for i in iter_bits(y)):
                    refine(y)
    found = {0}
    for block in set(least):
        ops += len(found)
        found |= {f | block for f in found}
    out = canonical_sort(found, algebra.space.n)
    return ClosureResult(tuple(map(Poset.set_of, out)), len(gens), ops)


def is_closed_family(algebra: Algebra, family: Iterable[Iterable[int]]) -> bool:
    """Check a family is a subalgebra: it equals its own closure, so it
    contains the constants and is closed under all four operations."""
    family = {frozenset(f) for f in family}
    return set(generate_subalgebra(algebra, family).generated) == family


def one_generator_growth(n: int, limit: int = DOWNSET_LIMIT) -> int:
    """Size of the subalgebra generated by the first minimal singleton in
    the dual algebra of the width-2 grid; always at least ``n``."""
    space = catalog.range2_grid(n)
    algebra = dual_algebra(space, limit)
    closure = generate_subalgebra(algebra, [frozenset((0,))])
    return len(closure)


def local_finiteness_bound(generators: int) -> int:
    """The doubly exponential ceiling ``3 * 2**(2**(2N))`` on the size of an
    ``N``-generated subalgebra in the two-level bipartite family.

    Values for ``N >= 3`` are reported as overflow rather than computed;
    they are astronomically past any runtime use.
    """
    check_natural(generators, "generators")
    if generators < 1:
        raise BadParams("the bound is stated for at least one generator")
    if generators >= 3:
        raise Overflow(
            f"3 * 2**(2**{2 * generators}) exceeds any practical representation"
        )
    return 3 * 2 ** (2 ** (2 * generators))


def crown_bound_ceiling(generators: int) -> int:
    """Ceiling ``3 * (2**(2**(4N)))**2`` for the doubled-crown family."""
    check_natural(generators, "generators")
    if generators > 1:
        raise BadParams("only N in {0, 1} is representable here")
    return 3 * (2 ** (2 ** (4 * generators))) ** 2


def crown_bound_check(n: int, generators: int) -> bool:
    """Verify every ``N``-generated closure in the doubled-crown algebra
    stays below the stated ceiling (trivially so, via the algebra size)."""
    if not 2 <= n <= 4:
        raise BadParams(f"crown bound check supports 2 <= n <= 4, got {n}")
    if generators not in (0, 1):
        raise BadParams("only N in {0, 1} is supported")
    algebra = dual_algebra(catalog.crown_pair(n))
    ceiling = crown_bound_ceiling(generators)
    if generators == 0:
        return len(generate_subalgebra(algebra, [])) <= ceiling
    # Every one-generator closure is a subset of the algebra.
    return len(algebra) <= ceiling
