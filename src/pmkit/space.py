"""Finite pm-spaces: a poset together with an order-reversing involution.

A :class:`Space` is the finite (hence discrete) form of the dual structure
of a pseudocomplemented de Morgan algebra.  Validation is eager: an invalid
involution is rejected at construction, so every downstream operation may
assume a legal space.

A fact derived from a space alone, such as the search tables, is kept on
the space it describes (:func:`per_space`), so it lives exactly as long as
the space does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Iterable, Optional, Sequence

from .errors import (
    IndexOutOfRange,
    InvolutionBroken,
    NotRegular,
    OrderReversalBroken,
    check_natural,
)
from .order import DOWNSET_LIMIT, Distance, Poset, canonical_sort, closed_masks
from .order import check_indices, is_index, iter_bits


def per_space(compute):
    """``compute(space)``, worked out on first use and kept on the space.

    Sound because a space is immutable.  An exception is not kept, so a
    refusal is raised again on every call.  Two threads racing on a new
    space may both compute the fact; the results are equal, and one of them
    is kept.
    """

    @wraps(compute)
    def fact(space):
        facts = space._facts
        try:
            return facts[compute]
        except KeyError:
            value = facts[compute] = compute(space)
            return value

    return fact


def check_spaces(**spaces) -> None:
    """Raise :class:`IndexOutOfRange` naming the first argument that is no
    :class:`Space`; the keywords are the argument names."""
    for name, space in spaces.items():
        if not isinstance(space, Space):
            raise IndexOutOfRange(f"{name} must be a Space, got {space!r}")


@dataclass(frozen=True)
class SpaceKind:
    """Summary flags of a space: regularity, the Kleene condition, zeta-width."""

    regular: bool
    kleene: bool
    zeta_width: int


class Space:
    """A finite poset with an involution ``zeta`` that reverses the order."""

    __slots__ = ("poset", "zeta", "_zeta_bits", "_hash", "_facts", "__weakref__")

    def __init__(self, poset: Poset, zeta: Sequence[int]):
        if not isinstance(poset, Poset):
            raise IndexOutOfRange(f"poset must be a Poset, got {poset!r}")
        try:
            zeta = tuple(zeta)
        except TypeError:
            raise IndexOutOfRange(f"zeta must be a sequence of points, got {zeta!r}") from None
        n = poset.n
        if len(zeta) != n or not all(is_index(z, n) for z in zeta):
            raise IndexOutOfRange("zeta must be a permutation of 0..n-1")
        for x in range(n):
            if zeta[zeta[x]] != x:
                raise InvolutionBroken(
                    f"zeta(zeta({x})) = {zeta[zeta[x]]} != {x}", witness=(x, zeta[x])
                )
        # zeta reverses the order when the image of each up row lies in the
        # down row of the point's image.
        zeta_bits = tuple([1 << z for z in zeta])
        up, down = poset._up, poset._down
        for x in range(n):
            rest, image = up[x], 0
            while rest:
                low = rest & -rest
                image |= zeta_bits[low.bit_length() - 1]
                rest ^= low
            if image & ~down[zeta[x]]:
                for y in iter_bits(up[x]):
                    if not up[zeta[y]] >> zeta[x] & 1:
                        raise OrderReversalBroken(
                            f"{x} <= {y} but not zeta({y}) <= zeta({x})", witness=(x, y)
                        )
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "_zeta_bits", zeta_bits)
        object.__setattr__(self, "_hash", hash((poset, zeta)))
        object.__setattr__(self, "_facts", {})

    def __setattr__(self, name, val):
        raise AttributeError("Space is immutable")

    @property
    def n(self) -> int:
        return self.poset.n

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Space)
            and self._hash == other._hash
            and self.zeta == other.zeta
            and self.poset == other.poset
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Space(n={self.n}, covers={self.poset.covers()}, zeta={list(self.zeta)})"

    # -- involution images -------------------------------------------------

    def zeta_image(self, xs: Iterable[int]) -> frozenset[int]:
        """Pointwise image of a set under the involution."""
        zeta = self.zeta
        return frozenset([zeta[x] for x in check_indices(xs, self.n)])

    def star_prime(self, mask: int) -> tuple[int, int]:
        """Star and prime of the point set ``mask`` in one pass: the
        complements of its up-closure and of its involution image.  They need
        no downsets, so simplicity, the congruence sets and subalgebra
        closure are answered on the space alone."""
        up, zeta_bits, top = self.poset._up, self._zeta_bits, self.poset._all
        covered = image = 0
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            covered |= up[i]
            image |= zeta_bits[i]
            mask ^= low
        return top & ~covered, top & ~image

    # -- classification ----------------------------------------------------

    def is_regular(self) -> bool:
        """True when every chain has at most two elements (height <= 1), that
        is, when every point is minimal or maximal."""
        p = self.poset
        return p.minimals_mask() | p.maximals_mask() == p.all_mask

    def is_kleene(self) -> bool:
        """True when every point is comparable with its involution image."""
        up, down = self.poset._up, self.poset._down
        return all((up[x] | down[x]) >> z & 1 for x, z in enumerate(self.zeta))

    def zeta_distance(self, x: int, y: int) -> Distance:
        """min of the distances from ``x`` to ``y`` and to ``zeta(y)``, in one sweep."""
        check_indices((x, y), self.n)
        return self.poset.distance_to_set(x, (y, self.zeta[y]))

    def zeta_width(self) -> int:
        """The largest finite zeta-distance between two points (0 if none).

        zeta reverses the order, so it keeps comparable pairs comparable and
        is an automorphism of the comparability graph: d(x, zeta y) equals
        d(zeta x, y).  A sweep from ``{x, zeta x}`` therefore reaches ``y``
        at level min(d(x, y), d(x, zeta y)).
        """
        sweeps = (self.poset._frontiers(1 << x | 1 << z) for x, z in enumerate(self.zeta))
        return max((level for sweep in sweeps for level, _ in sweep), default=0)

    def kind(self) -> SpaceKind:
        return SpaceKind(
            regular=self.is_regular(),
            kleene=self.is_kleene(),
            zeta_width=self.zeta_width(),
        )

    # -- simplicity ----------------------------------------------------------

    def simple_component(self) -> Optional[frozenset[int]]:
        """An order component ``Q`` with ``Q + zeta(Q)`` covering the space, if any.

        Requires a regular space; the simplicity characterisation is only
        established at height <= 1.
        """
        if not self.is_regular():
            raise NotRegular("simplicity test requires height <= 1")
        for block in self.poset._component_masks():
            # the prime of Q is the complement of zeta(Q)
            if not self.star_prime(block)[1] & ~block:
                return Poset.set_of(block)
        return None

    def is_simple(self) -> bool:
        return self.simple_component() is not None

    def simple_in_mn(self, bound: int) -> bool:
        """Pairwise test: every pair is within ``bound`` of the other or its image."""
        check_natural(bound, "bound")
        if self.n == 0:
            raise NotRegular("the empty space has a trivial dual algebra")
        if not self.is_regular():
            raise NotRegular("membership test requires height <= 1")
        # every point lies within ``bound`` of {x, zeta x}; see zeta_width
        p, starts = self.poset, (1 << x | 1 << z for x, z in enumerate(self.zeta))
        return all(p._within(start, bound) == p.all_mask for start in starts)

    # -- congruences ----------------------------------------------------------

    def _congruence_generator(self, x: int) -> int:
        """Least involution-closed set containing x whose minimal part is up-closed."""
        minimals, top = self.poset.minimals_mask(), self.poset.all_mask
        current, grown = 0, 1 << x
        while grown != current:
            current = grown
            # involution image and up-closure: the complements of prime and star
            grown = current | top & ~self.star_prime(current)[1]
            grown |= top & ~self.star_prime(grown & minimals)[0]
        return current

    def congruence_sets(self) -> tuple[frozenset[int], ...]:
        """All sets that are involution-closed and up-closed on their minimal part.

        They correspond one-to-one with the congruences of the dual algebra.
        The family is closed under union and intersection, so
        :func:`~pmkit.order.closed_masks` lists it from the per-point generated
        sets, raising :class:`SizeLimitExceeded` past ``DOWNSET_LIMIT`` sets."""
        gens = [self._congruence_generator(x) for x in range(self.n)]
        found = closed_masks(gens, DOWNSET_LIMIT, "congruence sets")
        return tuple(map(Poset.set_of, canonical_sort(found, self.n)))
