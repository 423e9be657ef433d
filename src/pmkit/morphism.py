"""Structure-preserving maps between spaces: validation and search.

A legal map must preserve the order, commute with the involutions, and pull
no new minimal elements out of thin air: every minimal element below the
image of a point must be the image of a minimal element below the point.
Surjective maps of this kind are exactly the duals of subalgebra embeddings,
so the exhaustive search below decides embeddability questions.

The search assigns images to minimal elements first; the involution then
forces the images of their partners, which halves the branching on spaces
of height at most 1.  The scan is in lexicographic order with a
configurable node budget, so verdicts and witnesses are deterministic.  It
checks forward on bitset domains (Haralick & Elliott 1980): every source
point has a domain, the mask of the targets it may still take, which
starts as its candidate mask from ``_candidates`` (narrowed by point key
for the isomorphism test).  Each frame of the search's explicit stack holds
the domains next to the mask of the targets used so far.  Pruning never
removes the lexicographically first witness:

* two static candidate filters drawn from the minimal-element condition:
  ``x <= zeta(x)`` forces ``phi(x) <= zeta(phi(x))``, and ``phi(x)`` has at
  most as many minimals below it as ``x`` has;
* narrowing: placing ``x -> t`` (and ``zeta x -> zeta t``) cuts the domain
  of every unplaced point above ``x`` to the targets above ``t``, and below
  ``x`` to those below ``t``; a branch ends when a domain empties, and the
  partner is placed only while ``zeta t`` is still in its domain;
* coverage: a branch ends when the used targets and the open domains
  together miss a target, or when fewer points are free than targets are
  unused;
* root refutation: the same check made once before the first placement.
  A question ends with no attempt, and 0 nodes, when some candidate mask
  is empty or the masks together miss a target; so no budget, not even 0,
  is exceeded on it;
* twin value-symmetry breaking: targets ``t < t'`` are twins when the swap
  ``(t t')(zeta t, zeta t')`` is an automorphism of the target.  Let ``t``
  be the least twin of ``t'``.  While ``t``, ``t'`` and their partners are
  all unused, the swap fixes every value used so far and turns a witness
  with ``x -> t'`` into one with ``x -> t``, so ``t'`` is not tried (Van
  Hentenryck, Flener, Pearson & Agren 2003, "Tractable symmetry breaking
  for CSPs with interchangeable values").  Twins are looked for only among
  points with the same key (up and down sizes, whether fixed, below or
  above the partner); the isomorphism test matches points by that key too,
  and automorphisms keep it, so the argument holds there as well.
  Narrowing keeps it sound: a domain is cut only by the rows of used
  targets, which the swap fixes, so ``t`` and ``t'`` lie in the same
  domains.

The minimal-element condition is verified in full at the leaves by the same
validator used for standalone checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import (
    IndexOutOfRange,
    NotQ6Shaped,
    SearchBudgetExceeded,
    check_natural,
)
from .order import Poset, check_indices, iter_bits
from .space import Space, check_spaces, per_space

#: Default cap on assignment attempts per search.
DEFAULT_BUDGET = 10**8


def _images(src: Space, dst: Space, mapping: Sequence[int]) -> tuple[int, ...]:
    """``mapping`` as a tuple, after checking that it sends every point of
    ``src`` to a point of ``dst``."""
    try:
        phi = tuple(mapping)
    except TypeError:
        raise IndexOutOfRange(f"mapping must be a sequence of points, got {mapping!r}") from None
    if len(phi) != src.n:
        raise IndexOutOfRange("mapping must assign every source element")
    return check_indices(phi, dst.n, "mapping image")


@dataclass(frozen=True)
class MorphismMap:
    """A total map between the element sets of two spaces."""

    src: Space
    dst: Space
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", _images(self.src, self.dst, self.mapping))

    def check(self) -> "MorphismCheck":
        return check_pm_morphism(self.src, self.dst, self.mapping)


@dataclass(frozen=True)
class MorphismCheck:
    """Verdict of a map check; on failure names the clause and a witness."""

    ok: bool
    clause: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def check_pm_morphism(src: Space, dst: Space, mapping: Sequence[int]) -> MorphismCheck:
    """Check order preservation, involution equivariance and the
    minimal-element condition, reporting the first violation found."""
    phi = _images(src, dst, mapping)
    for x in range(src.n):
        if phi[src.zeta[x]] != dst.zeta[phi[x]]:
            return MorphismCheck(False, "involution", (x,))
    for x in range(src.n):
        for y in iter_bits(src.poset.up_mask(x)):
            if not dst.poset.leq(phi[x], phi[y]):
                return MorphismCheck(False, "order", (x, y))
    for x in range(src.n):
        image_minimals = dst.poset.min_below(phi[x])
        pushed = {phi[y] for y in src.poset.min_below(x)}
        if not image_minimals <= pushed:
            bad = min(image_minimals - pushed)
            return MorphismCheck(False, "minimals", (x, bad))
    return MorphismCheck(True)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a surjective-map search."""

    found: bool
    witness: Optional[MorphismMap]
    nodes_explored: int


class _Tables(NamedTuple):
    """What the search reads off one space, computed once per space."""

    #: mask of the points ``t`` with ``t <= zeta(t)``
    below_partner: int
    #: ``min_count[t]``: the number of minimals below ``t``
    min_count: tuple[int, ...]
    #: ``at_most[k]``: mask of the points with at most ``k`` minimals below
    at_most: tuple[int, ...]
    #: ``key[t]``: up size, down size, fixed, below partner, above partner;
    #: every automorphism commuting with zeta, and every isomorphism, keeps it
    key: tuple[tuple[int, int, bool, int, int], ...]
    #: ``twin[t]``: the least twin of ``t``, the representative of its class
    #: (``t`` itself when no twin is smaller)
    twin: tuple[int, ...]


def _is_twin_swap(space: Space, t: int, u: int) -> bool:
    """True when the swap ``(t u)(zeta t, zeta u)`` (just ``(t u)`` when
    ``u = zeta t``) is an automorphism of ``space``.  Either both points are
    fixed by zeta or neither is: the caller compares points of one key."""
    up, down, zeta = space.poset._up, space.poset._down, space.zeta
    zt, zu = zeta[t], zeta[u]
    moved = 1 << t | 1 << u | 1 << zt | 1 << zu
    # A row outside the moved points is kept when it holds t and u alike, and
    # zeta t and zeta u alike; zeta carries the second test to the up rows.
    up_t, up_u, down_t, down_u = up[t], up[u], down[t], down[u]
    if (up_t ^ up_u | down_t ^ down_u) & ~moved:
        return False
    swap = {t: u, u: t, zt: zu, zu: zt}

    def image(mask: int) -> int:
        out = mask & ~moved
        for a, b in swap.items():
            if mask >> a & 1:
                out |= 1 << b
        return out

    # The swap commutes with zeta, so the rows of zeta t and zeta u follow.
    return image(up_t) == up_u and image(down_t) == down_u


@per_space
def _search_tables(space: Space) -> _Tables:
    """The candidate filters, the key and the twins of every point of ``space``.

    Kept on the space (:func:`~pmkit.space.per_space`), so an equal but
    distinct space computes its own equal tables.  Being twins is an
    equivalence, so each point is tested against the representatives found
    so far, and only against those with the same key.
    """
    p, zeta = space.poset, space.zeta
    minimals = p.minimals_mask()
    below_partner = 0
    min_count = []
    keys = []
    groups: dict[tuple, list[int]] = {}
    for t in range(space.n):
        up, down, zt = p._up[t], p._down[t], zeta[t]
        if up >> zt & 1:
            below_partner |= 1 << t
        min_count.append((down & minimals).bit_count())
        key = (up.bit_count(), down.bit_count(), zt == t, up >> zt & 1, down >> zt & 1)
        keys.append(key)
        groups.setdefault(key, []).append(t)
    at_most = [0] * (max(min_count, default=0) + 1)
    for t, k in enumerate(min_count):
        at_most[k] |= 1 << t
    for k in range(1, len(at_most)):
        at_most[k] |= at_most[k - 1]
    twin = list(range(space.n))
    for members in groups.values():
        reps: list[int] = []
        for u in members:
            twin[u] = next((r for r in reps if _is_twin_swap(space, r, u)), u)
            if twin[u] == u:
                reps.append(u)
    return _Tables(below_partner, tuple(min_count), tuple(at_most), tuple(keys), tuple(twin))


def _candidates(src: Space, dst: Space) -> list[int]:
    """``cand[x]``: the mask of the targets the search may try for ``x``."""
    sp, dp = src.poset, dst.poset
    src_min, src_max = sp.minimals_mask(), sp.maximals_mask()
    dst_min, dst_max = dp.minimals_mask(), dp.maximals_mask()
    src_tables, dst_tables = _search_tables(src), _search_tables(dst)
    at_most, below_partner = dst_tables.at_most, dst_tables.below_partner
    cand = []
    for x in range(src.n):
        c = dp.all_mask
        if (src_min >> x) & 1:
            c &= dst_min
        if (src_max >> x) & 1:
            c &= dst_max
        # x <= zeta(x) forces phi(x) <= zeta(phi(x)), and every minimal
        # below phi(x) is the image of one below x.
        if (src_tables.below_partner >> x) & 1:
            c &= below_partner
        k = src_tables.min_count[x]
        if k < len(at_most):
            c &= at_most[k]
        cand.append(c)
    return cand


def _narrow(sp: Poset, dp: Poset, dom: list[int], free: int, x: int, t: int) -> bool:
    """After ``x -> t``, cut the domain of every free point above ``x`` to
    the points above ``t``, and below ``x`` to those below ``t``; False as
    soon as a domain is empty."""
    for row, cut in ((sp._up[x], dp._up[t]), (sp._down[x], dp._down[t])):
        for u in iter_bits(row & free):
            dom[u] &= cut
            if not dom[u]:
                return False
    return True


def _search(
    src: Space, dst: Space, cand: list[int], budget: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """Backtracking core of the surjective search and the isomorphism test,
    over the candidate masks ``cand``: ``(witness or None, nodes)``.

    One loop over an explicit stack, so no depth limit applies.  A frame
    ``(pos, used, free, dom, targets)`` is a node: ``used`` masks the targets
    hit so far, ``free`` the unplaced points, ``dom[u]`` the targets open to
    a free point ``u``, and ``targets`` those of ``order[pos]`` not yet tried
    (None until the node is entered).  ``mapping`` is up to date at the
    placed points only.  Every step places ``x`` and ``zeta(x)`` together, so
    ``used`` is closed under zeta, and the coverage checks made before each
    descent make it full at a leaf.
    """
    all_targets = dst.poset.all_mask
    # The coverage check of every descent, made once before the first
    # placement: no attempt is made on a question it refutes.
    reach = 0
    for c in cand:
        if not c:
            return None, 0
        reach |= c
    if reach != all_targets:
        return None, 0
    n = src.n
    sp, dp = src.poset, dst.poset
    src_zeta, dst_zeta = src.zeta, dst.zeta
    twin = _search_tables(dst).twin
    # Minimal elements first: their partners' images come for free.
    minimals = sorted(iter_bits(sp.minimals_mask()))
    order = minimals + sorted(set(range(n)) - set(minimals))
    mapping = [-1] * n
    nodes = deepest = 0
    stack = [(0, 0, (1 << n) - 1, cand, None)]
    while stack:
        pos, used, free, dom, targets = stack[-1]
        if targets is None:
            while pos < n and not free >> order[pos] & 1:
                pos += 1
            deepest = max(deepest, n - free.bit_count())
            if pos == n:
                if check_pm_morphism(src, dst, mapping).ok:
                    return tuple(mapping), nodes
                stack.pop()
                continue
            targets = iter_bits(dom[order[pos]])
            stack[-1] = (pos, used, free, dom, targets)
        x = order[pos]
        zx = src_zeta[x]
        for t in targets:
            tz = dst_zeta[t]
            r = twin[t]
            if r != t and not used & (1 << t | 1 << r):
                continue  # not an attempt: r stands for t
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"search exceeded {budget} assignment attempts"
                    f" (deepest: {deepest} of {n} points)"
                )
            if zx == x and tz != t:
                continue
            rest = free & ~(1 << x)
            child_dom = list(dom)
            if not _narrow(sp, dp, child_dom, rest, x, t):
                continue
            if zx != x:
                # The partner's domain is already narrowed by x -> t.
                if not child_dom[zx] >> tz & 1:
                    continue
                rest &= ~(1 << zx)
                if not _narrow(sp, dp, child_dom, rest, zx, tz):
                    continue
            child = used | 1 << t | 1 << tz
            # Every free point covers at most one new target, and only one
            # still in its domain.
            if dst.n - child.bit_count() > rest.bit_count():
                continue
            reach = child
            for u in iter_bits(rest):
                reach |= child_dom[u]
            if reach != all_targets:
                continue
            mapping[x] = t
            mapping[zx] = tz
            stack.append((pos + 1, child, rest, child_dom, None))
            break
        else:
            stack.pop()
    return None, nodes


def search_surjective(src: Space, dst: Space, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for a surjective structure map from ``src`` onto ``dst``."""
    check_spaces(src=src, dst=dst)
    check_natural(budget, "budget")
    if dst.n > src.n:
        return SearchReport(False, None, 0)
    witness, nodes = _search(src, dst, _candidates(src, dst), budget)
    found = witness is not None
    return SearchReport(found, MorphismMap(src, dst, witness) if found else None, nodes)


def is_pm_isomorphic(a: Space, b: Space, budget: int = DEFAULT_BUDGET) -> bool:
    """True when some structure map is a bijection whose inverse is also a
    structure map.

    After a size, point-key and height prefilter this is the surjective
    search restricted to key-matching candidates; between spaces of equal
    size its coverage bound admits only bijections.
    """
    check_spaces(a=a, b=b)
    check_natural(budget, "budget")
    if a.n != b.n:
        return False
    key_a, key_b = _search_tables(a).key, _search_tables(b).key
    if sorted(key_a) != sorted(key_b):
        return False
    if a.poset.height() != b.poset.height():
        return False
    # Refine candidates: identical point keys only.
    with_key: dict[tuple, int] = {}
    for t, key in enumerate(key_b):
        with_key[key] = with_key.get(key, 0) | 1 << t
    cand = [c & with_key[key_a[x]] for x, c in enumerate(_candidates(a, b))]
    # Any structure map phi the search finds now is an isomorphism.  Being
    # order preserving and a bijection, phi sends down(x) into down(phi x), so
    # |down(phi x)| >= |down x| for every x.  The keys give both spaces the
    # same sorted down-set sizes, so the two sums are equal and each
    # inequality is an equality: phi(down x) = down(phi x).  Hence phi also
    # reflects the order, and its inverse is a structure map.
    return _search(a, b, cand, budget)[0] is not None


# -- specialised criteria for the two-level bipartite family -----------------

@per_space
def _q6_shape(space: Space) -> tuple[int, int, int, tuple[tuple[int, int, bool], ...]]:
    """``(n, minimals mask, exceptions mask, level)`` of a q6-shaped space,
    where ``level`` lists ``(x, zeta(x), x is an exception)`` over the
    minimals ``x`` in increasing order.

    Kept on the space (:func:`~pmkit.space.per_space`); a shape mismatch
    raises :class:`NotQ6Shaped` on every call and is not kept.
    """
    p, zeta = space.poset, space.zeta
    minimals, maximals = p.minimals_mask(), p.maximals_mask()
    n = minimals.bit_count()
    if n < 3 or space.n != 2 * n or minimals & maximals:
        raise NotQ6Shaped("expected disjoint minimal/maximal levels with |min| >= 3")
    # zeta reverses the order both ways, so it swaps the two levels
    exceptions = 0
    for x in iter_bits(minimals):
        up, own = p._up[x], 1 << zeta[x]
        if maximals & ~own & ~up:
            raise NotQ6Shaped("distinct minimals must lie below each other's images")
        if not up & own:
            exceptions |= 1 << x
    level = tuple((x, zeta[x], bool(exceptions >> x & 1)) for x in iter_bits(minimals))
    return n, minimals, exceptions, level


class Q6CriteriaReport(NamedTuple):
    """Per-clause verdicts of the surjectivity criteria for q6-shaped maps."""

    level_onto_and_equivariant: bool
    exception_preimage_inside: bool
    injective_on_exception_preimage: bool
    collapsed_exceptions_witnessed: bool

    @property
    def ok(self) -> bool:
        return all(self)


def check_q6_criteria(src: Space, dst: Space, mapping: Sequence[int]) -> Q6CriteriaReport:
    """Evaluate the four clauses characterising surjective structure maps
    between q6-shaped spaces.

    Writing ``S``/``I`` for the source minimal level and its exceptional
    part, ``T``/``J`` for the target ones: the map must send ``S`` onto
    ``T`` equivariantly; the preimage of ``J`` must lie inside ``I``; the
    map must be injective on that preimage; and every exceptional point
    mapped outside ``J`` must share its image with another non-preimage
    point of ``S``.
    """
    _, _, exc_src, level = _q6_shape(src)
    _, t_level, exc_dst, _ = _q6_shape(dst)
    phi = _images(src, dst, mapping)
    dst_zeta = dst.zeta

    image = preimage = preimage_image = 0
    equivariant = injective = True
    # Images of level points outside the preimage: hit once, hit again, and
    # hit by an exceptional point.
    once = twice = collapsed = 0
    for x, zx, exceptional in level:
        t = phi[x]
        bit = 1 << t
        image |= bit
        if phi[zx] != dst_zeta[t]:
            equivariant = False
        if bit & exc_dst:
            preimage |= 1 << x
            if bit & preimage_image:
                injective = False
            preimage_image |= bit
        else:
            twice |= once & bit
            once |= bit
            if exceptional:
                collapsed |= bit

    clause1 = image == t_level and equivariant
    clause2 = not preimage & ~exc_src
    return Q6CriteriaReport(clause1, clause2, injective, not collapsed & ~twice)
