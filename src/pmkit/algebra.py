"""The dual algebra of a finite pm-space.

Elements are the decreasing subsets of the space, with intersection and
union as lattice operations, the pseudocomplement ``star`` (complement of
the up-closure), the de Morgan involution ``prime`` (complement of the
involution image) and the derived dual pseudocomplement.  Inside, an element
is the bitmask of its points.  The elements are counted at construction
(:meth:`~pmkit.order.Poset.count_downsets`), and listed only on first need,
once, as a tuple of masks in the canonical order (by cardinality, then by
sorted index tuple): ``len()``, membership and the four operations read the
space's down rows and its star and prime
(:meth:`~pmkit.space.Space.star_prime`) and list nothing.  The congruence
sets need only those, so the space lists them.  The public methods take and
return frozensets of points.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import (
    IndexOutOfRange,
    NotAnElement,
    NotRegular,
    SizeLimitExceeded,
    check_natural,
)
from .order import DOWNSET_LIMIT, Poset, check_indices
from .space import Space, check_spaces


class Algebra:
    """All downsets of a space, with the four algebra operations."""

    def __init__(self, space: Space, limit: int = DOWNSET_LIMIT):
        check_spaces(space=space)
        count = space.poset.count_downsets(limit)
        if count > limit:
            raise SizeLimitExceeded(
                f"more than {limit} downsets ({count} exist); raise the limit to proceed"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_count", count)

    def __setattr__(self, name, val):
        raise AttributeError("Algebra is immutable")

    def __len__(self) -> int:
        return self._count

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The element masks in the canonical order, listed on first need."""
        return tuple(self.space.poset.downset_masks(self._count))

    def __contains__(self, xs) -> bool:
        try:
            self.mask_of(xs)
        except NotAnElement:
            return False
        return True

    @cached_property
    def elements(self) -> tuple[frozenset[int], ...]:
        """The elements as frozensets of points, in the canonical order,
        listed on first read."""
        return tuple(map(Poset.set_of, self._masks))

    @property
    def zero(self) -> frozenset[int]:
        return frozenset()

    @property
    def one(self) -> frozenset[int]:
        return Poset.set_of(self.space.poset.all_mask)

    def mask_of(self, xs: Iterable[int]) -> int:
        """Bitmask of the element with points ``xs``, or :class:`NotAnElement`
        (also for members that are no point, by :func:`pmkit.order.is_index`)."""
        try:
            xs = tuple(xs)
        except TypeError:
            raise NotAnElement(f"{xs!r} is not a set of points") from None
        poset = self.space.poset
        down = poset._down
        try:
            mask = below = 0
            for x in check_indices(xs, poset.n):
                mask |= 1 << x
                below |= down[x]
            # a downset holds everything below its points
            if below == mask:
                return mask
        except IndexOutOfRange:
            pass
        try:
            xs = sorted(xs)
        except TypeError:  # points of mixed types, listed as given
            xs = list(xs)
        raise NotAnElement(f"{xs} is not a downset of this space")

    # -- operations ----------------------------------------------------------

    def _prime_star(self, mask: int) -> int:
        return self.space.star_prime(self.space.star_prime(mask)[1])[0]

    def _plus(self, mask: int) -> int:
        return self.space.star_prime(self._prime_star(mask))[1]

    def star(self, xs: Iterable[int]) -> frozenset[int]:
        """Pseudocomplement: the complement of the up-closure."""
        return Poset.set_of(self.space.star_prime(self.mask_of(xs))[0])

    def prime(self, xs: Iterable[int]) -> frozenset[int]:
        """De Morgan involution: the complement of the involution image."""
        return Poset.set_of(self.space.star_prime(self.mask_of(xs))[1])

    def plus(self, xs: Iterable[int]) -> frozenset[int]:
        """Dual pseudocomplement, as the composite prime-star-prime."""
        return Poset.set_of(self._plus(self.mask_of(xs)))

    def range_iterate(self, xs: Iterable[int], k: int) -> frozenset[int]:
        """Apply the prime-star step ``k`` times."""
        check_natural(k, "step count")
        mask = self.mask_of(xs)
        for _ in range(k):
            mask = self._prime_star(mask)
        return Poset.set_of(mask)

    def range_term_via_distance(self, xs: Iterable[int], k: int) -> frozenset[int]:
        """Distance form of the k-th prime-star iterate, valid at height <= 1.

        The iterate equals the set of points farther than ``k`` from the
        complement (k even) or from the involution image of the complement
        (k odd).
        """
        check_natural(k, "step count")
        if not self.space.is_regular():
            raise NotRegular("the distance formula requires height <= 1")
        mask, top = self.mask_of(xs), self.space.poset.all_mask
        # zeta is a bijection: the involution image of the complement is the prime
        target = self.space.star_prime(mask)[1] if k % 2 else top & ~mask
        return Poset.set_of(top & ~self.space.poset._within(target, k))

    def range_of(self) -> int:
        """Least n making every element's prime-star chain stall by step n:
        the most steps any ``x & x'*`` takes to reach a fixed point."""
        most = 0
        for mask in self._masks:
            current, k = mask & self._prime_star(mask), 0
            while (nxt := self._prime_star(current)) != current:
                current, k = nxt, k + 1
            most = max(most, k)
        return most

    # -- regularity and congruences ------------------------------------------

    def is_regular(self) -> bool:
        """Exhaustive check of ``x & x+ <= y | y*`` over all element pairs."""
        lower, upper = 0, self.space.poset.all_mask
        for mask in self._masks:
            lower |= mask & self._plus(mask)
            upper &= mask | self.space.star_prime(mask)[0]
        return not lower & ~upper

    def _star_determines(self, other) -> bool:
        signatures = {(self.space.star_prime(m)[0], other(m)) for m in self._masks}
        return len(signatures) == len(self._masks)

    def moisil_trivial(self) -> bool:
        """True when equal star and prime-star determine equal elements."""
        return self._star_determines(self._prime_star)

    def determination_trivial(self) -> bool:
        """True when equal star and plus determine equal elements."""
        return self._star_determines(self._plus)

    def congruence_sets(self) -> tuple[frozenset[int], ...]:
        """The space's congruence sets (:meth:`Space.congruence_sets`)."""
        return self.space.congruence_sets()

    # -- duality round trip ----------------------------------------------------

    def reconstruct_space(self) -> Space:
        """Rebuild a space from the algebra: points are the per-point prime
        ideals ordered by inclusion, with the involution read off through the
        de Morgan operation.  The result is pm-isomorphic to the source space.
        """
        n, masks = self.space.n, self._masks[::-1]
        # ideals[x]: the positions of the elements avoiding x, read as binary
        # digits from the last element down to the first
        ideals = [int("".join(["0" if m >> x & 1 else "1" for m in masks]), 2) for x in range(n)]
        up = [sum(1 << j for j in range(n) if not ideal & ~ideals[j]) for ideal in ideals]
        lookup = {ideal: x for x, ideal in enumerate(ideals)}
        primes = [self.space.star_prime(m)[1] for m in masks]
        # the ideal of zeta(x): the elements avoiding zeta(x), whose primes hold x
        zeta = [
            lookup[int("".join(["1" if p >> x & 1 else "0" for p in primes]), 2)]
            for x in range(n)
        ]
        return Space(Poset(up), zeta)


def dual_algebra(space: Space, limit: int = DOWNSET_LIMIT) -> Algebra:
    """The downset algebra of ``space``, counted; raises
    :class:`SizeLimitExceeded` when it has more than ``limit`` elements."""
    return Algebra(space, limit)
