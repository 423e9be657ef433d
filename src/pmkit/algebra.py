"""The dual algebra of a finite pm-space.

Elements are the decreasing subsets of the space, with intersection and
union as lattice operations, the pseudocomplement ``star`` (complement of
the up-closure), the de Morgan involution ``prime`` (complement of the
involution image) and the derived dual pseudocomplement.  The element list
is enumerated eagerly in a canonical order: by cardinality, then by sorted
index tuple.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotAnElement, NotRegular
from .order import DOWNSET_LIMIT, Poset, canonical_key
from .space import Space


class Algebra:
    """All downsets of a space, with the four algebra operations."""

    __slots__ = ("space", "elements", "_index", "_universe")

    def __init__(self, space: Space, limit: int = DOWNSET_LIMIT):
        elements = tuple(space.poset.downsets(limit))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(
            self, "_index", {e: i for i, e in enumerate(elements)}
        )
        object.__setattr__(self, "_universe", frozenset(range(space.n)))

    def __setattr__(self, name, val):
        raise AttributeError("Algebra is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, xs) -> bool:
        return frozenset(xs) in self._index

    @property
    def zero(self) -> frozenset[int]:
        return self.elements[0]

    @property
    def one(self) -> frozenset[int]:
        return self._universe

    def index_of(self, xs: Iterable[int]) -> int:
        xs = frozenset(xs)
        try:
            return self._index[xs]
        except KeyError:
            raise NotAnElement(f"{sorted(xs)} is not a downset of this space") from None

    def check_element(self, xs: Iterable[int]) -> frozenset[int]:
        xs = frozenset(xs)
        if xs not in self._index:
            raise NotAnElement(f"{sorted(xs)} is not a downset of this space")
        return xs

    # -- operations ----------------------------------------------------------

    def meet(self, xs: frozenset[int], ys: frozenset[int]) -> frozenset[int]:
        return xs & ys

    def join(self, xs: frozenset[int], ys: frozenset[int]) -> frozenset[int]:
        return xs | ys

    def star(self, xs: Iterable[int]) -> frozenset[int]:
        """Pseudocomplement: the complement of the up-closure."""
        xs = self.check_element(xs)
        return self._universe - self.space.poset.up_closure(xs)

    def prime(self, xs: Iterable[int]) -> frozenset[int]:
        """De Morgan involution: the complement of the involution image."""
        xs = self.check_element(xs)
        return self._universe - self.space.zeta_image(xs)

    def plus(self, xs: Iterable[int]) -> frozenset[int]:
        """Dual pseudocomplement, as the composite prime-star-prime."""
        return self.prime(self.star(self.prime(xs)))

    def prime_star(self, xs: Iterable[int]) -> frozenset[int]:
        return self.star(self.prime(xs))

    def range_iterate(self, xs: Iterable[int], k: int) -> frozenset[int]:
        """Apply the prime-star step ``k`` times."""
        xs = self.check_element(xs)
        for _ in range(k):
            xs = self.prime_star(xs)
        return xs

    def range_term_via_distance(self, xs: Iterable[int], k: int) -> frozenset[int]:
        """Distance form of the k-th prime-star iterate, valid at height <= 1.

        The iterate equals the set of points farther than ``k`` from the
        complement (k even) or from the involution image of the complement
        (k odd).
        """
        if not self.space.is_regular():
            raise NotRegular("the distance formula requires height <= 1")
        xs = self.check_element(xs)
        complement = self._universe - xs
        target = complement if k % 2 == 0 else self.space.zeta_image(complement)
        levels = self.space.poset.distance_levels(target)
        return frozenset(x for x in range(self.space.n) if levels[x] > k)

    def stabilization_steps(self, xs: Iterable[int]) -> int:
        """Least k with the k-th and (k+1)-th iterates of ``xs & xs'*`` equal."""
        xs = self.check_element(xs)
        current = xs & self.prime_star(xs)
        k = 0
        while True:
            nxt = self.prime_star(current)
            if nxt == current:
                return k
            current = nxt
            k += 1

    def range_of(self) -> int:
        """Least n making every element's prime-star chain stall by step n."""
        return max((self.stabilization_steps(xs) for xs in self.elements), default=0)

    # -- regularity ----------------------------------------------------------

    def is_regular(self) -> bool:
        """Exhaustive check of ``x & x+ <= y | y*`` over all element pairs."""
        lower = frozenset()
        for xs in self.elements:
            lower |= xs & self.plus(xs)
        upper = self._universe
        for ys in self.elements:
            upper &= ys | self.star(ys)
        return lower <= upper

    def _signature_trivial(self, signature) -> bool:
        seen = {}
        for xs in self.elements:
            sig = signature(xs)
            if sig in seen and seen[sig] != xs:
                return False
            seen[sig] = xs
        return True

    def moisil_trivial(self) -> bool:
        """True when equal star and prime-star determine equal elements."""
        return self._signature_trivial(lambda xs: (self.star(xs), self.prime_star(xs)))

    def determination_trivial(self) -> bool:
        """True when equal star and plus determine equal elements."""
        return self._signature_trivial(lambda xs: (self.star(xs), self.plus(xs)))

    # -- congruences ----------------------------------------------------------

    def _congruence_generator(self, x: int) -> frozenset[int]:
        """Least involution-closed set containing x whose minimal part is up-closed."""
        poset = self.space.poset
        min_mask = poset.minimals()
        current = frozenset((x,))
        while True:
            grown = current | self.space.zeta_image(current)
            grown |= poset.up_closure(grown & min_mask)
            if grown == current:
                return current
            current = grown

    def congruence_sets(self) -> tuple[frozenset[int], ...]:
        """All sets that are involution-closed and up-closed on their minimal part.

        These correspond one-to-one with the congruences of the algebra; the
        family is closed under union and intersection, so it is exactly the
        set of unions of the per-point generated sets.
        """
        found = {frozenset()}
        for gen in {self._congruence_generator(x) for x in range(self.space.n)}:
            found |= {xs | gen for xs in found}
        return tuple(sorted(found, key=canonical_key))

    # -- duality round trip ----------------------------------------------------

    def point_ideal(self, x: int) -> frozenset[int]:
        """Indices of the elements avoiding point ``x`` (a prime ideal)."""
        return frozenset(
            i for i, xs in enumerate(self.elements) if x not in xs
        )

    def reconstruct_space(self) -> Space:
        """Rebuild a space from the algebra: points are the per-point prime
        ideals ordered by inclusion, with the involution read off through the
        de Morgan operation.  The result is pm-isomorphic to the source space.
        """
        n = self.space.n
        ideals = [self.point_ideal(x) for x in range(n)]
        lookup = {ideal: x for x, ideal in enumerate(ideals)}
        pairs = [
            (i, j) for i in range(n) for j in range(n) if ideals[i] <= ideals[j]
        ]
        poset = Poset.from_pairs(n, pairs)
        zeta = []
        for x in range(n):
            # a member of the image ideal is an element whose prime avoids x.
            image = frozenset(
                i for i, xs in enumerate(self.elements) if x in self.prime(xs)
            )
            zeta.append(lookup[image])
        return Space(poset, zeta)


def dual_algebra(space: Space, limit: int = DOWNSET_LIMIT) -> Algebra:
    """Enumerate the downset algebra of ``space``."""
    return Algebra(space, limit)
