"""Subalgebra generation by closure, and finiteness/growth experiments.

The closure works on element masks, with the space's own star and prime
(:meth:`~pmkit.space.Space.star_prime`), through the least generated member
containing each point.  Those least members fix the generated
{0,1}-sublattice (its members are exactly their unions), so closing under
the two unary operations only needs each distinct least member checked
once.  The closure runs in rounds: a round takes the star and prime of the
least members not yet checked, then applies each distinct image not
applied before, in one scan of its points that both tests and refines.
The members are listed from the least members by
:func:`~pmkit.order.closed_masks`, and stay masks: a :class:`ClosureResult`
keeps the listing's tuple, compares and hashes by it, and makes frozensets,
in the canonical order, only when its ``generated`` tuple is first read.
Growth experiments on the width-2 grid family show one generator producing
at least ``n`` elements, the finite shadow of a free algebra being
infinite; they run the closure on the space alone and never enumerate the
downset algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import catalog
from .algebra import Algebra, dual_algebra
from .errors import BadParams, NotAnElement, Overflow, check_natural
from .order import DOWNSET_LIMIT, Poset, canonical_sort, closed_masks
from .space import Space


@dataclass(frozen=True)
class ClosureResult:
    """A generated subalgebra.

    The members are kept as the tuple of their masks that
    :func:`~pmkit.order.closed_masks` lists from the least members.  The
    subalgebra alone fixes its least members, so two results for one
    subalgebra hold the same tuple.  Equality and the hash go by the member
    masks, the generator count and the op applications, and list nothing.
    ``generated`` lists the members as frozensets, in the canonical element
    order, on first read and keeps the tuple.

    ``op_applications`` counts the star and prime evaluations and the joins
    made by the closure.
    """

    _masks: tuple[int, ...]
    generator_count: int
    op_applications: int

    @cached_property
    def generated(self) -> tuple[frozenset[int], ...]:
        """The members as frozensets of points, in the canonical order."""
        # The top is a member, so its bit length is the point count.
        out = canonical_sort(self._masks, max(self._masks).bit_length())
        return tuple(map(Poset.set_of, out))

    def __len__(self) -> int:
        return len(self._masks)

    def __repr__(self):
        return (
            f"ClosureResult(generated={self.generated!r}, "
            f"generator_count={self.generator_count!r}, "
            f"op_applications={self.op_applications!r})"
        )


def _close(space: Space, gens: list[int], limit: int) -> ClosureResult:
    """The subalgebra generated by the downset masks ``gens``.  Raises
    :class:`SizeLimitExceeded` once more than ``limit`` members are listed."""
    top = space.poset.all_mask
    # least[i] is the least generated member containing point i: the meet of
    # the top and every generator containing i (Birkhoff).  The generated
    # {0,1}-sublattice is exactly the set of unions of these blocks (0 is the
    # empty union, the top the union of all):
    # k in least[i] gives least[k] <= least[i], so meets of unions are again
    # unions, and a mask y is a member iff least[i] <= y for every i in y.
    least = [top] * space.n
    checked: set[int] = set()
    applied: set[int] = set()

    def apply(images: set[int]) -> None:
        applied.update(images)
        for y in images:
            # One scan of y's points tests and refines.  A point whose block
            # already lies in y needs nothing, and nor do that block's points,
            # whose own blocks lie in it.
            rest, outside = y, top ^ y
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                block = least[i]
                if block & outside:
                    least[i] = block & y
                    rest ^= low
                else:
                    rest ^= rest & block

    apply(set(gens))
    # Star and prime turn joins into meets ((a | b)* = a* & b* and
    # (a | b)' = a' & b'), so the lattice is closed under both once the
    # images of every block are members.  Members only accumulate, so a
    # block that passed once stays passed, and an image applied once stays
    # a member: each distinct image is applied once.  A round collects the
    # images of all its fresh blocks before applying any.  The blocks a
    # round leaves do not depend on the order its images are applied in, so
    # every round's fresh blocks are those of applying each image as soon
    # as it is made, and so are the op applications counted from them.
    while fresh := set(least) - checked:
        checked |= fresh
        apply({y for block in fresh for y in space.star_prime(block)} - applied)
    # a star and a prime per block checked, and one join per member listed
    # past the empty union
    found = closed_masks(least, limit, "subalgebra members")
    return ClosureResult(found, len(gens), 2 * len(checked) + len(found) - 1)


def generate_subalgebra(algebra: Algebra, gens: Iterable[Iterable[int]]) -> ClosureResult:
    """Least subset of the algebra containing the generators and constants,
    closed under meet, join, pseudocomplement and the de Morgan operation."""
    try:
        gens = list(gens)
    except TypeError:
        raise NotAnElement(f"{gens!r} is not a collection of elements") from None
    # a subset of the algebra cannot outgrow it, so the limit never binds
    return _close(algebra.space, [algebra.mask_of(g) for g in gens], len(algebra))


def is_closed_family(algebra: Algebra, family: Iterable[Iterable[int]]) -> bool:
    """Check a family is a subalgebra: it equals its own closure, so it
    contains the constants and is closed under all four operations."""
    try:
        family = {frozenset(f) for f in family}
    except TypeError:
        raise NotAnElement(f"{family!r} is not a family of sets of points") from None
    # the family lies in its closure, so the two are equal iff equally large
    return len(generate_subalgebra(algebra, family)) == len(family)


def one_generator_growth(n: int, limit: int = DOWNSET_LIMIT) -> int:
    """Size of the subalgebra generated by the first minimal singleton in
    the dual algebra of the width-2 grid; always at least ``n``.  Raises
    :class:`SizeLimitExceeded` when it has more than ``limit`` members."""
    # point 0 is minimal, so its singleton (mask 1) is a downset
    return len(_close(catalog.range2_grid(n), [1], limit))


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
    check_natural(n, "n")
    check_natural(generators, "generators")
    if not 2 <= n <= 4:
        raise BadParams(f"crown bound check supports 2 <= n <= 4, got {n}")
    if generators not in (0, 1):
        raise BadParams("only N in {0, 1} is supported")
    space = catalog.crown_pair(n)
    ceiling = crown_bound_ceiling(generators)
    if generators == 0:
        return len(_close(space, [], DOWNSET_LIMIT)) <= ceiling
    # Every one-generator closure is a subset of the algebra.
    return len(dual_algebra(space)) <= ceiling
