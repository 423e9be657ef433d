"""Variety-level reasoning over finite simple algebras.

Everything here is phrased through dual spaces: one finite simple algebra
lies in the variety generated by others exactly when its space is the image
of one of their spaces under a surjective structure map.  For the two-level
bipartite family there is also a closed-form membership predicate, kept
strictly separate from the search so the two can be played against each
other as oracles.

Sub variety lattices of finitely many simple generators are materialised as
the downset lattice of the embeddability order on the generators, built
from mask rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import catalog
from .errors import BadLabel, NotRegular, check_natural
from .morphism import DEFAULT_BUDGET, search_surjective
from .order import Poset, iter_bits
from .space import Space


@dataclass(frozen=True)
class SimpleRef:
    """A named finite simple algebra, addressed through its dual space."""

    label: str
    space: Space

    @classmethod
    def builtin(cls, i: int) -> "SimpleRef":
        return cls(f"L{i}", catalog.q(i))

    @classmethod
    def l6(cls, m: int, n: int) -> "SimpleRef":
        _check_label(m, n, "mn")
        return cls(f"L6({m},{n})", catalog.q6(m, n))

    @classmethod
    def custom(cls, label: str, space: Space) -> "SimpleRef":
        if not space.is_simple():
            raise NotRegular(f"{label}: the space is not simple")
        return cls(label, space)


def _check_label(p: int, q: int, names: str = "pq") -> None:
    check_natural(p, names[0])
    check_natural(q, names[1])
    if q < 3 or p > q:
        raise BadLabel(f"labels require q >= 3 and 0 <= p <= q, got ({p}, {q})")


def l6_member(p: int, q: int, m: int, n: int) -> bool:
    """Closed-form test: does the (p, q) bipartite algebra embed into the
    (m, n) one?  Requires ``p <= m`` and either all four parameters equal or
    ``p < q`` with ``q`` at most ``p + (m - p)//2 + n - m``."""
    _check_label(p, q)
    _check_label(m, n, "mn")
    if p > m:
        return False
    if p == q == m == n:
        return True
    return p < q and q <= p + (m - p) // 2 + (n - m)


def l6_member_oracle(p: int, q: int, m: int, n: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Brute-force counterpart of :func:`l6_member` by morphism search."""
    _check_label(p, q)
    _check_label(m, n, "mn")
    return search_surjective(catalog.q6(m, n), catalog.q6(p, q), budget).found


def is_member(
    candidate: SimpleRef,
    generators: Sequence[SimpleRef],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True when the candidate's space is a surjective image of some
    generator's space (membership in the generated variety, for finite
    simple algebras in a locally finite setting)."""
    return any(
        search_surjective(g.space, candidate.space, budget).found for g in generators
    )


@dataclass(frozen=True)
class VarietyLattice:
    """The subvariety lattice of finitely many simple generators.

    ``classes`` are the equivalence classes of generators under mutual
    embeddability; ``order`` is the induced poset on classes (``i <= j``
    when class ``i`` embeds into class ``j``); ``downsets`` enumerates all
    decreasing sets of classes in the canonical set order, so by size.  The
    empty downset is the trivial variety.
    """

    generators: tuple[SimpleRef, ...]
    classes: tuple[tuple[str, ...], ...]
    order: Poset
    downsets: tuple[frozenset[int], ...]

    @property
    def nontrivial_count(self) -> int:
        return len(self.downsets) - 1

    def decomposition(self, downset: frozenset[int]) -> frozenset[str]:
        """Labels of the maximal classes of a downset: its join decomposition."""
        mask = self.order.mask_of(downset)
        below = 0
        for c in iter_bits(mask):
            below |= self.order.down_mask(c) & ~(1 << c)
        return frozenset(self.classes[c][0] for c in iter_bits(mask & ~below))

    def decompositions(self) -> set[frozenset[str]]:
        return {self.decomposition(d) for d in self.downsets if d}

    def node_label(self, downset: frozenset[int]) -> str:
        if not downset:
            return "T"
        return "+".join(sorted(self.decomposition(downset)))

    def covers(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """Covering pairs of the downset lattice (they differ by one class)."""
        masks = [self.order.mask_of(d) for d in self.downsets]
        pool = set(masks)
        return [
            (d, Poset.set_of(mask | 1 << c))
            for d, mask in zip(self.downsets, masks)
            for c in range(len(self.classes))
            if not mask >> c & 1 and mask | 1 << c in pool
        ]

    def is_chain(self) -> bool:
        return all(a <= b for a, b in zip(self.downsets, self.downsets[1:]))

    def to_dot(self) -> str:
        """Hasse diagram in DOT text, edges pointing at the larger variety."""
        lines = ["digraph subvarieties {", "  rankdir=BT;"]
        for d in self.downsets:
            lines.append(f'  "{self.node_label(d)}";')
        for low, high in self.covers():
            lines.append(
                f'  "{self.node_label(low)}" -> "{self.node_label(high)}";'
            )
        lines.append("}")
        return "\n".join(lines)


def subvariety_lattice(
    generators: Sequence[SimpleRef], budget: int = DEFAULT_BUDGET
) -> VarietyLattice:
    """Compute the lattice of subvarieties generated by the given simples.

    Raises an order fault such as :class:`TransitivityBroken` if the searched
    embeddings do not form a preorder, rather than closing them silently."""
    gens = tuple(generators)
    k = len(gens)
    # above[i]: the generators whose spaces map onto generator i's space.
    above = [
        sum(
            1 << j
            for j in range(k)
            if i == j or search_surjective(gens[j].space, gens[i].space, budget).found
        )
        for i in range(k)
    ]
    classes: list[tuple[str, ...]] = []
    class_of = [-1] * k
    for i in range(k):
        if class_of[i] >= 0:
            continue
        block = [j for j in iter_bits(above[i]) if above[j] >> i & 1]
        for j in block:
            class_of[j] = len(classes)
        classes.append(tuple(gens[j].label for j in block))
    up = [0] * len(classes)
    for i in range(k):
        for j in iter_bits(above[i]):
            up[class_of[i]] |= 1 << class_of[j]
    order = Poset(up)
    return VarietyLattice(gens, tuple(classes), order, tuple(order.downsets()))
