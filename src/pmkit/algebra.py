"""The dual algebra of a finite pm-space.

Elements are the decreasing subsets of the space, with intersection and
union as lattice operations, the pseudocomplement ``star`` (complement of
the up-closure), the de Morgan involution ``prime`` (complement of the
involution image) and the derived dual pseudocomplement.  Inside, an element
is the bitmask of its points: the elements are enumerated once as masks in
the canonical order (by cardinality, then by sorted index tuple), and every
operation and query works on masks through one definition of star and
prime.  That definition lives on :class:`SpaceOps`, which needs only the
space, so the subalgebra closure can use it without the downsets.  The
public methods take and return frozensets of points.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotAnElement, NotRegular, check_natural
from .order import DOWNSET_LIMIT, Poset, canonical_sort, closed_masks, iter_bits
from .space import Space


class SpaceOps:
    """Star and prime on the point masks of a space.

    They need only the up rows, the involution and the top, not the
    downsets, so a closure can run on a space without building its algebra.
    """

    __slots__ = ("space", "_up", "_zeta_bits", "_top")

    def __init__(self, space: Space):
        poset = space.poset
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_up", tuple(map(poset.up_mask, range(space.n))))
        object.__setattr__(self, "_zeta_bits", tuple(1 << z for z in space.zeta))
        object.__setattr__(self, "_top", poset.all_mask)

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def images(self, mask: int) -> tuple[int, int]:
        """Star and prime of the point set ``mask`` in one pass: the
        complements of its up-closure and of its involution image."""
        up, zeta_bits = self._up, self._zeta_bits
        covered = image = 0
        for i in iter_bits(mask):
            covered |= up[i]
            image |= zeta_bits[i]
        return self._top & ~covered, self._top & ~image


class Algebra(SpaceOps):
    """All downsets of a space, with the four algebra operations."""

    __slots__ = ("_index", "_elements")

    def __init__(self, space: Space, limit: int = DOWNSET_LIMIT):
        masks = space.poset.downset_masks(limit)
        super().__init__(space)
        # element masks mapped to their positions, in the canonical order
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(masks)})
        object.__setattr__(self, "_elements", None)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, xs) -> bool:
        try:
            self.mask_of(xs)
        except NotAnElement:
            return False
        return True

    @property
    def elements(self) -> tuple[frozenset[int], ...]:
        """The elements as frozensets of points, in the canonical order."""
        if self._elements is None:
            object.__setattr__(self, "_elements", tuple(map(Poset.set_of, self._index)))
        return self._elements

    @property
    def zero(self) -> frozenset[int]:
        return frozenset()

    @property
    def one(self) -> frozenset[int]:
        return Poset.set_of(self._top)

    def mask_of(self, xs: Iterable[int]) -> int:
        """Bitmask of the element with points ``xs``, or :class:`NotAnElement`.
        A point is a non-bool int, as a map image is in :mod:`pmkit.morphism`."""
        try:
            xs = tuple(xs)
        except TypeError:
            raise NotAnElement(f"{xs!r} is not a set of points") from None
        n = len(self._up)
        if all(type(x) is int and 0 <= x < n for x in xs):
            mask = 0
            for x in xs:
                mask |= 1 << x
            if mask in self._index:
                return mask
        try:
            xs = sorted(xs)
        except TypeError:  # points of mixed types, listed as given
            xs = list(xs)
        raise NotAnElement(f"{xs} is not a downset of this space")

    def index_of(self, xs: Iterable[int]) -> int:
        return self._index[self.mask_of(xs)]

    # -- operations ----------------------------------------------------------

    def _prime_star(self, mask: int) -> int:
        return self.images(self.images(mask)[1])[0]

    def _plus(self, mask: int) -> int:
        return self.images(self._prime_star(mask))[1]

    def star(self, xs: Iterable[int]) -> frozenset[int]:
        """Pseudocomplement: the complement of the up-closure."""
        return Poset.set_of(self.images(self.mask_of(xs))[0])

    def prime(self, xs: Iterable[int]) -> frozenset[int]:
        """De Morgan involution: the complement of the involution image."""
        return Poset.set_of(self.images(self.mask_of(xs))[1])

    def plus(self, xs: Iterable[int]) -> frozenset[int]:
        """Dual pseudocomplement, as the composite prime-star-prime."""
        return Poset.set_of(self._plus(self.mask_of(xs)))

    def prime_star(self, xs: Iterable[int]) -> frozenset[int]:
        return Poset.set_of(self._prime_star(self.mask_of(xs)))

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
        mask = self.mask_of(xs)
        # zeta is a bijection: the involution image of the complement is the prime
        target = self.images(mask)[1] if k % 2 else self._top & ~mask
        return Poset.set_of(self._top & ~self.space.poset._within(target, k))

    def range_of(self) -> int:
        """Least n making every element's prime-star chain stall by step n:
        the most steps any ``x & x'*`` takes to reach a fixed point."""
        most = 0
        for mask in self._index:
            current, k = mask & self._prime_star(mask), 0
            while (nxt := self._prime_star(current)) != current:
                current, k = nxt, k + 1
            most = max(most, k)
        return most

    # -- regularity ----------------------------------------------------------

    def is_regular(self) -> bool:
        """Exhaustive check of ``x & x+ <= y | y*`` over all element pairs."""
        lower, upper = 0, self._top
        for mask in self._index:
            lower |= mask & self._plus(mask)
            upper &= mask | self.images(mask)[0]
        return not lower & ~upper

    def _star_determines(self, other) -> bool:
        signatures = {(self.images(m)[0], other(m)) for m in self._index}
        return len(signatures) == len(self._index)

    def moisil_trivial(self) -> bool:
        """True when equal star and prime-star determine equal elements."""
        return self._star_determines(self._prime_star)

    def determination_trivial(self) -> bool:
        """True when equal star and plus determine equal elements."""
        return self._star_determines(self._plus)

    # -- congruences ----------------------------------------------------------

    def _congruence_generator(self, x: int) -> int:
        """Least involution-closed set containing x whose minimal part is up-closed."""
        minimals, top = self.space.poset.minimals_mask(), self._top
        current, grown = 0, 1 << x
        while grown != current:
            current = grown
            # involution image and up-closure: the complements of prime and star
            grown = current | top & ~self.images(current)[1]
            grown |= top & ~self.images(grown & minimals)[0]
        return current

    def congruence_sets(self) -> tuple[frozenset[int], ...]:
        """All sets that are involution-closed and up-closed on their minimal part.

        These correspond one-to-one with the congruences of the algebra; the
        family is closed under union and intersection, so
        :func:`~pmkit.order.closed_masks` lists it from the per-point
        generated sets, raising :class:`SizeLimitExceeded` past
        ``DOWNSET_LIMIT`` sets.
        """
        gens = [self._congruence_generator(x) for x in range(self.space.n)]
        found = closed_masks(gens, DOWNSET_LIMIT, "congruence sets")
        return tuple(map(Poset.set_of, canonical_sort(found, self.space.n)))

    # -- duality round trip ----------------------------------------------------

    def point_ideal(self, x: int) -> frozenset[int]:
        """Indices of the elements avoiding point ``x`` (a prime ideal)."""
        bit = self.space.poset.mask_of((x,))
        return frozenset(i for i, m in enumerate(self._index) if not m & bit)

    def reconstruct_space(self) -> Space:
        """Rebuild a space from the algebra: points are the per-point prime
        ideals ordered by inclusion, with the involution read off through the
        de Morgan operation.  The result is pm-isomorphic to the source space.
        """
        n = self.space.n
        ideals = [self.point_ideal(x) for x in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if ideals[i] <= ideals[j]]
        lookup = {ideal: x for x, ideal in enumerate(ideals)}
        primes = [self.images(m)[1] for m in self._index]
        # the ideal of zeta(x): the elements avoiding zeta(x), whose primes hold x
        zeta = [
            lookup[frozenset(i for i, p in enumerate(primes) if p >> x & 1)]
            for x in range(n)
        ]
        return Space(Poset.from_pairs(n, pairs), zeta)


def dual_algebra(space: Space, limit: int = DOWNSET_LIMIT) -> Algebra:
    """Enumerate the downset algebra of ``space``."""
    return Algebra(space, limit)
