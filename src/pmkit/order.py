"""Finite posets on dense indices 0..n-1 with bit-packed order rows.

The order is stored as one integer bitmask per element (the full reflexive
relation), so comparability queries are O(1) word operations.  Distances are
measured in the comparability graph: an edge joins two distinct comparable
elements, and the distance across different order components is infinite.
Infinity is a symbolic :class:`Distance` value, never a numeric sentinel.
This module alone decides what a point is: :func:`is_index` and
:func:`check_indices` hold every index, map image and involution entry of
the library to one rule, an exact ``int`` (no bool, no other subclass) in
``range(n)``.  Every :class:`Poset` query that takes a point checks it,
``up_mask`` and ``down_mask`` included; the library's own code, holding
only points it has checked or made, reads the rows ``_up`` and ``_down``
itself.  :func:`closed_masks` is the one listing of a family closed under
union and intersection (downsets, subalgebra members, congruence sets),
and the one place its size budget is enforced.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Sequence

from .errors import (
    AntisymmetryBroken,
    BadParams,
    IndexOutOfRange,
    ReflexivityBroken,
    SizeLimitExceeded,
    TransitivityBroken,
    check_natural,
)

#: Default cap on downset enumeration (the count can be exponential).
DOWNSET_LIMIT = 1 << 20


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_sort(masks: Iterable[int], n: int) -> list[int]:
    """Masks of subsets of ``range(n)`` in the canonical set order: by
    cardinality, then by sorted element tuple.  Of two sets of one size, the
    one holding the lowest point where they differ comes first."""
    width = f"0{n}b"
    out = sorted(masks, key=lambda m: format(m, width)[::-1], reverse=True)
    out.sort(key=int.bit_count)
    return out


def closed_masks(rows: Sequence[int], limit: int, what: str) -> tuple[int, ...]:
    """Every mask ``y`` with ``rows[i] <= y`` for each point ``i`` of ``y``,
    where ``rows[i]`` holds ``i`` and ``k`` in ``rows[i]`` gives ``rows[k] <=
    rows[i]``.  Such a family is closed under union and intersection, and
    every such family has these rows, its least members (Birkhoff): this one
    routine lists downsets, subalgebra members and congruence sets.  Raises
    :class:`SizeLimitExceeded` once more than ``limit`` ``what`` exist."""
    check_natural(limit, "limit")
    # A mask is smaller than its proper supersets, so along the distinct rows in
    # increasing order the closed sets of each prefix are those of the previous
    # one, and their unions with the new row where they hold its points seen so
    # far.  The row's unseen points are its class, those sharing the row.  A
    # row with no point seen so far extends every set, with no test at all.
    found, seen = [0], 0
    for row in sorted(set(rows)):
        if len(found) > limit:
            break
        below = row & seen
        if below:
            found += [m | row for m in found if m & below == below]
        else:
            found += [m | row for m in found]
        seen |= row
    if len(found) > limit:
        raise SizeLimitExceeded(f"more than {limit} {what}; raise the limit to proceed")
    return tuple(found)


@total_ordering
class Distance:
    """Length of a shortest comparability path, or infinity.

    Compares numerically; the infinite value is strictly greater than every
    finite one.  Plain ints (not bools, by the point rule) are accepted on the
    other side of a comparison.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if value is not None and not (type(value) is int and value >= 0):
            raise BadParams(f"distance must be a natural number or None, got {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("Distance is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, Distance):
            return other
        if type(other) is int:
            return Distance(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.value is None or other.value is None:
            return INFINITE
        return Distance(self.value + other.value)

    __radd__ = __add__

    def __hash__(self):
        return hash(("Distance", self.value))

    def __repr__(self):
        return "Distance.INFINITE" if self.value is None else f"Distance({self.value})"


INFINITE = Distance(None)


_INT = frozenset({int})


def is_index(x, n: int) -> bool:
    """True when ``x`` is a point of an ``n``-point space: an ``int`` in
    ``range(n)``, and not a bool or any other subclass of ``int``."""
    return type(x) is int and 0 <= x < n


def check_indices(xs: Iterable[int], n: int, noun: str = "index") -> tuple[int, ...]:
    """``xs`` as a tuple, after checking that each member is a point of an
    ``n``-point space (:func:`is_index`).  Raises :class:`IndexOutOfRange`
    when ``xs`` is not iterable, else naming the first member that is not an
    int, else the first out of range; ``noun`` says what the members are
    ("index", "mapping image")."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise IndexOutOfRange(f"xs must be an iterable of points, got {xs!r}") from None
    # C-level passes over the whole tuple; the generators run on failure only
    if not _INT.issuperset(map(type, xs)):
        bad = next(x for x in xs if type(x) is not int)
        raise IndexOutOfRange(f"{noun} {bad!r} is not an int")
    if xs and (min(xs) < 0 or max(xs) >= n):
        bad = next(x for x in xs if not 0 <= x < n)
        raise IndexOutOfRange(f"{noun} {bad} out of range for n={n}")
    return xs


def _raise_order_fault(up: Sequence[int], i: int) -> None:
    """Raise the first antisymmetry or transitivity fault of row ``i``, in
    the order of its bits."""
    for j in iter_bits(up[i]):
        if i != j and (up[j] >> i) & 1:
            raise AntisymmetryBroken(f"{i} <= {j} and {j} <= {i}", witness=(i, j))
        if up[j] & ~up[i]:
            k = next(iter_bits(up[j] & ~up[i]))
            raise TransitivityBroken(
                f"{i} <= {j} <= {k} but not {i} <= {k}", witness=(i, j, k)
            )


def _closure(rows: Sequence[int]) -> list[int]:
    """The reflexive-transitive closure of the relation whose row ``i`` holds
    ``i`` and its direct successors.

    Tarjan's depth-first search closes one strongly connected component at a
    time, in reverse topological order: the component's row is its members
    and the closed rows of the successors outside it, which are complete by
    then.  A row with no successor is closed as given and costs one test.
    """
    n = len(rows)
    closed = list(rows)
    number, low = [0] * n, [0] * n  # depth-first number (0: unvisited), low link
    done = bytearray(n)  # in a closed component
    path: list[int] = []  # Tarjan's stack of open points
    count = 0
    for root in range(n):
        if number[root] or rows[root] == 1 << root:
            continue
        count += 1
        number[root] = low[root] = count
        path.append(root)
        frames = [(root, rows[root] & ~(1 << root))]
        while frames:
            v, rest = frames[-1]
            if rest:
                w = (rest & -rest).bit_length() - 1
                frames[-1] = (v, rest & (rest - 1))
                if done[w] or rows[w] == 1 << w:
                    continue
                if number[w]:
                    low[v] = min(low[v], number[w])
                    continue
                count += 1
                number[w] = low[w] = count
                path.append(w)
                frames.append((w, rows[w] & ~(1 << w)))
                continue
            frames.pop()
            if frames:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] != number[v]:
                continue
            members = successors = 0
            while True:
                w = path.pop()
                done[w] = 1
                members |= 1 << w
                successors |= rows[w]
                if w == v:
                    break
            reach, rest = members, successors & ~members
            while rest:
                reach |= closed[(rest & -rest).bit_length() - 1]
                rest &= ~reach
            for w in iter_bits(members):
                closed[w] = reach
    return closed


class Poset:
    """An immutable finite partial order on indices ``0..n-1``.

    ``up_rows[i]`` is the bitmask of ``{j : i <= j}``.  The constructor
    validates reflexivity, antisymmetry and transitivity; use
    :meth:`from_pairs` to build from generating pairs (reflexive-transitive
    closure is taken, then antisymmetry is checked).
    """

    __slots__ = ("n", "_up", "_down", "_nbr", "_all", "_min", "_max", "_hash")

    def __init__(self, up_rows: Sequence[int]):
        try:
            up = list(up_rows)
        except TypeError:
            raise IndexOutOfRange(f"up_rows must be a sequence of masks, got {up_rows!r}") from None
        n = len(up)
        all_mask = (1 << n) - 1
        for i, row in enumerate(up):
            # a row is a mask of points: an int in range(2**n) by the point rule
            if not is_index(row, all_mask + 1):
                if type(row) is int:
                    raise IndexOutOfRange(f"row {i} mentions indices >= {n}")
                raise IndexOutOfRange(f"row {i} is not an int mask: {row!r}")
            if not (row >> i) & 1:
                raise ReflexivityBroken(f"{i} not <= {i}", witness=(i, i))
        # One pass over the bits of every row builds the down rows and the
        # union of the rows each row holds: the order is transitive exactly
        # when that union is the row itself, and antisymmetric exactly when
        # a row meets its down row in the point alone.
        down, reach = [0] * n, [0] * n
        for i, row in enumerate(up):
            bit, rest, acc = 1 << i, row, 0
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                down[j] |= bit
                acc |= up[j]
                rest ^= low
            reach[i] = acc
        minimals = maximals = 0
        for i, row in enumerate(up):
            bit = 1 << i
            if reach[i] != row or row & down[i] != bit:
                _raise_order_fault(up, i)
            if down[i] == bit:
                minimals |= bit
            if row == bit:
                maximals |= bit
        up = tuple(up)
        nbr = [(up[i] | down[i]) & ~(1 << i) for i in range(n)]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_nbr", tuple(nbr))
        object.__setattr__(self, "_all", all_mask)
        object.__setattr__(self, "_min", minimals)
        object.__setattr__(self, "_max", maximals)
        object.__setattr__(self, "_hash", hash(up))

    def __setattr__(self, name, val):
        raise AttributeError("Poset is immutable")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build from order-generating pairs ``(a, b)`` meaning ``a <= b``."""
        check_natural(n, "n")
        try:
            pairs = iter(pairs)
        except TypeError:
            raise IndexOutOfRange(f"pairs must be an iterable of pairs, got {pairs!r}") from None
        up = [1 << i for i in range(n)]
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise IndexOutOfRange(f"pair {pair!r} is not a pair of points") from None
            if not (is_index(a, n) and is_index(b, n)):
                raise IndexOutOfRange(f"pair ({a!r}, {b!r}) out of range for n={n}")
            up[a] |= 1 << b
        return cls(_closure(up))

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        check_natural(n, "n")
        return cls([1 << i for i in range(n)])

    @classmethod
    def chain(cls, n: int) -> "Poset":
        check_natural(n, "n")
        return cls.from_pairs(n, [(i, i + 1) for i in range(n - 1)])

    # -- masks -------------------------------------------------------------

    @property
    def all_mask(self) -> int:
        return self._all

    def mask_of(self, xs: Iterable[int]) -> int:
        mask = 0
        for x in check_indices(xs, self.n):
            mask |= 1 << x
        return mask

    @staticmethod
    def set_of(mask: int) -> frozenset[int]:
        return frozenset(iter_bits(mask))

    # -- order queries ----------------------------------------------------

    def up_mask(self, x: int) -> int:
        """The mask of the points above ``x``, ``x`` included."""
        if not is_index(x, self.n):
            check_indices((x,), self.n)
        return self._up[x]

    def down_mask(self, x: int) -> int:
        """The mask of the points below ``x``, ``x`` included."""
        if not is_index(x, self.n):
            check_indices((x,), self.n)
        return self._down[x]

    def leq(self, x: int, y: int) -> bool:
        n = self.n
        # Points skip the call, which raises on everything else.
        if not (type(x) is int and type(y) is int and 0 <= x < n and 0 <= y < n):
            check_indices((x, y), n)
        return bool((self._up[x] >> y) & 1)

    def down_closure(self, xs: Iterable[int]) -> frozenset[int]:
        """All elements below some member of ``xs``."""
        mask = 0
        for x in check_indices(xs, self.n):
            mask |= self._down[x]
        return self.set_of(mask)

    def is_decreasing(self, xs: Iterable[int]) -> bool:
        mask = self.mask_of(xs)
        return all(not self._down[x] & ~mask for x in iter_bits(mask))

    def minimals_mask(self) -> int:
        return self._min

    def maximals_mask(self) -> int:
        return self._max

    def min_below(self, x: int) -> frozenset[int]:
        """Minimal elements below ``x`` (the lower shadow of a point)."""
        if not is_index(x, self.n):
            check_indices((x,), self.n)
        return self.set_of(self._down[x] & self._min)

    # -- comparability-graph metrics --------------------------------------

    def _frontiers(self, start_mask: int) -> Iterator[tuple[int, int]]:
        """Yield ``(k, mask)`` of elements at distance exactly k from the set."""
        seen = frontier = start_mask
        level = 0
        while frontier:
            yield level, frontier
            nxt = 0
            for j in iter_bits(frontier):
                nxt |= self._nbr[j]
            frontier = nxt & ~seen
            seen |= frontier
            level += 1

    def distance(self, x: int, y: int) -> Distance:
        """Shortest-path distance between ``x`` and ``y``; infinite across components."""
        check_indices((x, y), self.n)
        return self.distance_levels((x,))[y]

    def distance_to_set(self, x: int, xs: Iterable[int]) -> Distance:
        """Least distance from ``x`` to a member of ``xs``; infinite for the empty set."""
        check_indices((x,), self.n)
        return self.distance_levels(xs)[x]

    def distance_levels(self, xs: Iterable[int]) -> list[Distance]:
        """Distance of every element from the set ``xs``, in one sweep."""
        target = self.mask_of(xs)
        out = [INFINITE] * self.n
        if not target:
            return out
        for level, frontier in self._frontiers(target):
            for j in iter_bits(frontier):
                out[j] = Distance(level)
        return out

    def _within(self, start_mask: int, radius: int) -> int:
        """Mask of the elements at distance at most ``radius`` from the set."""
        reached = 0
        for level, frontier in self._frontiers(start_mask):
            if level > radius:
                break
            reached |= frontier
        return reached

    def _component_masks(self) -> Iterator[int]:
        """Masks of the comparability components, by least element."""
        remaining = self._all
        while remaining:
            # no distance within a component reaches n
            mask = self._within(remaining & -remaining, self.n)
            yield mask
            remaining &= ~mask

    def order_components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the comparability graph, by least element."""
        return tuple(map(self.set_of, self._component_masks()))

    def height(self) -> int:
        """Length, in edges, of a longest chain."""
        n = self.n
        order = sorted(range(n), key=lambda i: self._down[i].bit_count())
        h = [0] * n
        for i in order:
            below = self._down[i] & ~(1 << i)
            h[i] = max((h[j] + 1 for j in iter_bits(below)), default=0)
        return max(h, default=0)

    # -- downsets ----------------------------------------------------------

    def downsets(self, limit: int = DOWNSET_LIMIT) -> list[frozenset[int]]:
        """All decreasing subsets, in the canonical set order."""
        return [self.set_of(m) for m in self.downset_masks(limit)]

    def downset_masks(self, limit: int = DOWNSET_LIMIT) -> list[int]:
        """Masks of all decreasing subsets, in the canonical set order.

        Raises :class:`SizeLimitExceeded` once more than ``limit`` sets exist.
        """
        return canonical_sort(closed_masks(self._down, limit, "downsets"), self.n)

    def count_downsets(self, limit: int = DOWNSET_LIMIT) -> int:
        """The number of decreasing subsets, counted without listing them.

        Downsets of a union of order components are products of theirs; a
        component of one point has two, and one of two points (a chain) has
        three.  A larger component ``C`` branches on its point ``x`` of
        largest comparability degree: the downsets without ``x`` are those of
        ``C - up x``, and those with ``x``, less ``down x``, are those of
        ``C - down x``.  Counts are memoised on the component mask, on an
        explicit stack, so no depth limit applies.  Counting is #P-complete
        (Provan & Ball 1983), so it has a budget: it raises
        :class:`SizeLimitExceeded` once ``limit`` components are branched on.
        The downsets outnumber the components branched on by at least two,
        so more than ``limit`` exist then.
        """
        check_natural(limit, "limit")
        up, down = self._up, self._down
        memo: dict[int, int] = {}
        # the parts of each component branched on, its two sides split
        pending: dict[int, tuple] = {}
        top = self._parts(self._all)
        stack = list(top[1])
        while stack:
            comp = stack[-1]
            if comp in memo:
                stack.pop()
                continue
            sides = pending.pop(comp, None)
            if sides is None:
                if len(memo) + len(pending) >= limit:
                    raise SizeLimitExceeded(
                        f"more than {limit} downsets (counting stopped after "
                        f"{limit} states); raise the limit to proceed"
                    )
                x = self._hub(comp)
                sides = self._parts(comp & ~up[x]), self._parts(comp & ~down[x])
                pending[comp] = sides
                stack += [c for _, comps in sides for c in comps if c not in memo]
                continue
            # every part above this component on the stack is counted by now
            stack.pop()
            memo[comp] = sum(self._product(part, memo) for part in sides)
        return self._product(top, memo)

    @staticmethod
    def _product(part: tuple[int, list[int]], memo: dict[int, int]) -> int:
        """Downsets of a part: its small components' product times the
        counts of the others."""
        total, comps = part
        for comp in comps:
            total *= memo[comp]
        return total

    def _parts(self, mask: int) -> tuple[int, list[int]]:
        """The comparability components of ``mask``: the product of the
        downset counts of those with at most two points (2 for a lone
        point, 3 for a pair, which is a chain), and the masks of the rest."""
        nbr = self._nbr
        small, comps = 1, []
        while mask:
            comp = frontier = mask & -mask
            while frontier and comp != mask:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & mask & ~comp
                comp |= frontier
            mask &= ~comp
            size = comp.bit_count()
            if size > 2:
                comps.append(comp)
            else:
                small *= size + 1
        return small, comps

    def _hub(self, comp: int) -> int:
        """The first point of ``comp`` of largest comparability degree in it."""
        nbr, most = self._nbr, comp.bit_count() - 1
        best = hub = -1
        rest = comp
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            degree = (nbr[i] & comp).bit_count()
            if degree > best:
                best, hub = degree, i
                if degree == most:  # comparable to all the rest
                    break
            rest ^= low
        return hub

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs ``(a, b)``: a < b with nothing strictly between."""
        out = []
        for a in range(self.n):
            strictly_above = self._up[a] & ~(1 << a)
            for b in iter_bits(strictly_above):
                between = strictly_above & self._down[b] & ~(1 << b)
                if not between:
                    out.append((a, b))
        return out

    def __eq__(self, other):
        return isinstance(other, Poset) and self._up == other._up

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"
