"""Finite pm-spaces: a poset together with an order-reversing involution.

A :class:`Space` is the finite (hence discrete) form of the dual structure
of a pseudocomplemented de Morgan algebra.  Validation is eager: an invalid
involution is rejected at construction, so every downstream operation may
assume a legal space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    IndexOutOfRange,
    InvolutionBroken,
    NotRegular,
    OrderReversalBroken,
    check_natural,
)
from .order import Distance, Poset, iter_bits


@dataclass(frozen=True)
class SpaceKind:
    """Summary flags of a space: regularity, the Kleene condition, zeta-width."""

    regular: bool
    kleene: bool
    zeta_width: int


class Space:
    """A finite poset with an involution ``zeta`` that reverses the order."""

    __slots__ = ("poset", "zeta")

    def __init__(self, poset: Poset, zeta: Sequence[int]):
        zeta = tuple(zeta)
        n = poset.n
        if len(zeta) != n or any(not 0 <= z < n for z in zeta):
            raise IndexOutOfRange("zeta must be a permutation of 0..n-1")
        for x in range(n):
            if zeta[zeta[x]] != x:
                raise InvolutionBroken(
                    f"zeta(zeta({x})) = {zeta[zeta[x]]} != {x}", witness=(x, zeta[x])
                )
        for x in range(n):
            for y in iter_bits(poset.up_mask(x)):
                if not poset.leq(zeta[y], zeta[x]):
                    raise OrderReversalBroken(
                        f"{x} <= {y} but not zeta({y}) <= zeta({x})", witness=(x, y)
                    )
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "zeta", zeta)

    def __setattr__(self, name, val):
        raise AttributeError("Space is immutable")

    @property
    def n(self) -> int:
        return self.poset.n

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.zeta == other.zeta
            and self.poset == other.poset
        )

    def __hash__(self):
        return hash((self.poset, self.zeta))

    def __repr__(self):
        return f"Space(n={self.n}, covers={self.poset.covers()}, zeta={list(self.zeta)})"

    # -- involution images -------------------------------------------------

    def zeta_image(self, xs: Iterable[int]) -> frozenset[int]:
        """Pointwise image of a set under the involution."""
        out = set()
        for x in xs:
            if not 0 <= x < self.n:
                raise IndexOutOfRange(f"index {x} out of range for n={self.n}")
            out.add(self.zeta[x])
        return frozenset(out)

    # -- classification ----------------------------------------------------

    def is_regular(self) -> bool:
        """True when every chain has at most two elements (height <= 1)."""
        return self.poset.height() <= 1

    def is_kleene(self) -> bool:
        """True when every point is comparable with its involution image."""
        return all(
            self.poset.leq(x, self.zeta[x]) or self.poset.leq(self.zeta[x], x)
            for x in range(self.n)
        )

    def zeta_distance(self, x: int, y: int) -> Distance:
        """min of the distances from ``x`` to ``y`` and to ``zeta(y)``."""
        return min(self.poset.distance(x, y), self.poset.distance(x, self.zeta[y]))

    def _zeta_rows(self) -> Iterator[list[Distance]]:
        """Row ``x`` holds the zeta-distance from ``x`` to every point.

        zeta reverses the order, so it keeps comparable pairs comparable and
        is an automorphism of the comparability graph: d(x, zeta y) equals
        d(zeta x, y).  One sweep from ``{x, zeta x}`` therefore yields
        min(d(x, y), d(x, zeta y)) for every ``y``.
        """
        for x in range(self.n):
            yield self.poset.distance_levels((x, self.zeta[x]))

    def zeta_width(self) -> int:
        """The largest finite zeta-distance between two points (0 if none)."""
        return max(
            (d.value for row in self._zeta_rows() for d in row if d.is_finite),
            default=0,
        )

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
        everything = frozenset(range(self.n))
        for block in self.poset.order_components():
            if block | self.zeta_image(block) == everything:
                return block
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
        return all(d <= bound for row in self._zeta_rows() for d in row)
