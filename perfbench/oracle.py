"""Answers the benchmark checks pmkit against, computed without pmkit.

Everything here is rebuilt from the definitions of the catalog families
(``q6``, ``crown_pair``, ``range2_grid``) on plain bitmasks, so a defect in
the code under test cannot make its own check pass:

* the closed-form membership predicate for the bipartite family, and
  ``m == n`` for doubled crowns, decide every search verdict;
* a structure-map test written from the definition checks every witness;
* the downset operations of the grid family and a reference closure give
  the expected subalgebra sizes committed in ``closure_pool.json``.

A :class:`Relation` uses the catalog's canonical point indices.  The
benchmark hands pmkit relabelled copies and maps answers back through the
inverse permutation before checking them.
"""

from __future__ import annotations


def l6_closed_form(p: int, q: int, m: int, n: int) -> bool:
    """Does the ``(p, q)`` bipartite simple algebra embed into the ``(m, n)``
    one?  Needs ``p <= m`` and either all four parameters equal, or
    ``p < q <= p + (m - p) // 2 + (n - m)``."""
    if p > m:
        return False
    if p == q == m == n:
        return True
    return p < q <= p + (m - p) // 2 + (n - m)


class Relation:
    """A finite order with an involution, as reflexive ``up`` bitmasks."""

    def __init__(self, n: int, strict_pairs, zeta):
        self.n = n
        self.zeta = tuple(zeta)
        self.up = [1 << i for i in range(n)]
        for a, b in strict_pairs:
            self.up[a] |= 1 << b
        self.down = [0] * n
        for a in range(n):
            for b in range(n):
                if self.up[a] >> b & 1:
                    self.down[b] |= 1 << a
        self.all = (1 << n) - 1
        self.minimals = sum(1 << i for i in range(n) if self.down[i] == 1 << i)

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    # -- the downset algebra --------------------------------------------

    def is_downset(self, mask: int) -> bool:
        return all(self.down[i] & ~mask == 0 for i in _bits(mask))

    def star(self, mask: int) -> int:
        """Complement of the up-closure."""
        up = 0
        for i in _bits(mask):
            up |= self.up[i]
        return self.all & ~up

    def prime(self, mask: int) -> int:
        """Complement of the involution image."""
        image = 0
        for i in _bits(mask):
            image |= 1 << self.zeta[i]
        return self.all & ~image

    def downsets(self) -> list[int]:
        """Every downset, in no particular order."""
        found = []

        def extend(idx: int, mask: int) -> None:
            if idx == self.n:
                found.append(mask)
                return
            extend(idx + 1, mask)
            below = self.down[idx] & ~(1 << idx)
            if below & ~mask == 0:
                extend(idx + 1, mask | 1 << idx)

        # Every family here lists its minimal points first, so a point's
        # strict down-set is decided before the point itself.
        extend(0, 0)
        return found


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def q6(m: int, n: int) -> Relation:
    """Minimals ``0..n-1``, images ``n..2n-1``; ``i < n + j`` unless
    ``i == j < m``."""
    pairs = [(i, n + j) for i in range(n) for j in range(n) if i != j or i >= m]
    return Relation(2 * n, pairs, [*range(n, 2 * n), *range(n)])


def crown(n: int) -> Relation:
    """Minimals ``a_i = i`` and ``b_i = n + i``, images at ``+2n``; same-half
    pairs are always related, mixed pairs when the indices differ."""
    pairs = []
    for i in range(n):
        for j in range(n):
            pairs += [(i, 2 * n + j), (n + i, 3 * n + j)]
            if i != j:
                pairs += [(i, 3 * n + j), (n + i, 2 * n + j)]
    return Relation(4 * n, pairs, [*range(2 * n, 4 * n), *range(2 * n)])


def grid(n: int) -> Relation:
    """Minimals ``x_i = i``, maximals ``y_j = n + j = zeta(x_j)``;
    ``x_i < y_j`` unless ``i`` and ``j`` are adjacent."""
    pairs = [(i, n + j) for i in range(n) for j in range(n) if abs(i - j) != 1]
    return Relation(2 * n, pairs, [*range(n, 2 * n), *range(n)])


def structure_map_fault(src: Relation, dst: Relation, phi) -> str | None:
    """Why ``phi`` is not a surjective structure map, or ``None``.

    A structure map commutes with the involutions, preserves the order and
    sends the minimal points below ``x`` onto every minimal point below
    ``phi(x)``.
    """
    if len(phi) != src.n or any(not 0 <= t < dst.n for t in phi):
        return "not a total map into the target"
    for x in range(src.n):
        if phi[src.zeta[x]] != dst.zeta[phi[x]]:
            return f"involution broken at {x}"
        for y in _bits(src.up[x]):
            if not dst.leq(phi[x], phi[y]):
                return f"order broken at {x} <= {y}"
        pushed = 0
        for y in _bits(src.down[x] & src.minimals):
            pushed |= 1 << phi[y]
        if dst.down[phi[x]] & dst.minimals & ~pushed:
            return f"minimal points below the image of {x} not reached"
    if len(set(phi)) != dst.n:
        return "not onto"
    return None


def reference_closure(rel: Relation, gens) -> set[int]:
    """Least family of downsets holding the constants and ``gens``, closed
    under meet, join, ``star`` and ``prime`` (semi-naive: only pairs with a
    new member are combined)."""
    seen = {0, rel.all, *gens}
    frontier = list(seen)
    while frontier:
        old = list(seen)
        fresh = set()
        for a in frontier:
            fresh.update((rel.star(a), rel.prime(a)))
            for b in old:
                fresh.update((a & b, a | b))
        fresh -= seen
        seen |= fresh
        frontier = list(fresh)
    return seen


def closure_fault(rel: Relation, gens, result, expected_size: int, total: int) -> str | None:
    """Why ``result`` (canonical masks) is not the closure of ``gens``.

    The committed size pins minimality; membership and closedness are
    checked directly.  A result of the size of the whole algebra only has
    to consist of distinct downsets.
    """
    family = set(result)
    if len(family) != len(result):
        return "duplicate elements"
    if len(family) != expected_size:
        return f"{len(family)} elements, expected {expected_size}"
    if not all(rel.is_downset(x) for x in family):
        return "an element is not a downset"
    if not {0, rel.all, *gens} <= family:
        return "constants or generators missing"
    if expected_size == total:
        return None
    for a in family:
        if rel.star(a) not in family or rel.prime(a) not in family:
            return "not closed under star and prime"
        for b in family:
            if a & b not in family or a | b not in family:
                return "not closed under meet and join"
    return None
