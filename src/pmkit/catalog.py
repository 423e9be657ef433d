"""Constructors for the concrete spaces the library is exercised on.

Six small building blocks ``q0`` .. ``q5``, the two-level bipartite family
``q6(m, n)``, the width-2 grid family ``range2_grid(n)``, the doubled crown
family ``crown_pair(n)``, closed subalgebra families on the latter two kinds
of space, and a non-regular three-chain used as a negative control.

The three parametrised families, and ``q1``, ``q2``, ``q4`` and ``q5``, are
two-level spaces on 2k points: the minimals at ``0..k-1`` and their
involution images ``zeta(i) = k+i`` above.  Each is read off one symmetric
relation, "minimal ``i`` lies below ``zeta(j)``".  Index conventions (also used for the printable element names):

* ``q6(m, n)``, k = n: minimal level ``s_0 .. s_{n-1}``; ``s_i < zeta(s_j)``
  unless ``i == j < m``, so the first ``m`` minimal elements are the ones
  not below their own image.
* ``range2_grid(n)``, k = n: minimals ``x_0..x_{n-1}``, maximals
  ``y_i = zeta(x_i)``; ``x_i < y_j`` unless ``i`` is ``j-1`` or ``j+1``
  (plain integers, no wraparound).
* ``crown_pair(n)``, k = 2n: minimals ``a_0..a_{n-1}`` at ``0..n-1`` and
  ``b_0..b_{n-1}`` at ``n..2n-1``; their images at ``2n+i`` and ``3n+i``.
  Every ``a_i`` is below every ``zeta(a_j)``, every ``b_i`` below every
  ``zeta(b_j)``, and the mixed relations hold exactly when the indices
  differ.

Each family returns one shared instance per parameter set: valid
parameters are looked up in a dictionary keyed by the family and the
parameters, which keeps every space it hands out for the life of the
process.  So the facts kept on a space (the search tables, the q6 shape)
are worked out once per parameter set.

``named_space`` resolves a catalog token to a space and its element names.
The parametrised families are read off one token table, ``FAMILIES``,
which maps ``q6``, ``grid`` and ``crown`` to the constructor, its arity, the
name prefix of each block of points and the usage text of its errors.
"""

from __future__ import annotations

from .errors import (
    BadParams,
    IndexOutOfRange,
    NotBooleanSubalgebra,
    PairedSingletonViolation,
    check_natural,
)
from .document import MAX_ELEMENTS
from .order import Poset, canonical_sort, is_index
from .space import Space, check_spaces


#: The shared spaces, keyed by ``(family, *params)`` with validated params.
_SHARED: dict[tuple, Space] = {}


def _shared(key: tuple, build, *args) -> Space:
    """The space under ``key``, or ``build(*args)`` stored under it.
    Callers validate the parameters first: ``1 == 1.0 == True`` as keys."""
    space = _SHARED.get(key)
    if space is None:
        space = _SHARED[key] = build(*args)
    return space


def q(i: int) -> Space:
    """The six small spaces: a fixed point, a swapped pair, a two-chain,
    two swapped two-chains, and the two four-element crowns (with and
    without one missing diagonal relation)."""
    check_natural(i, "i")
    if i > 5:
        raise IndexOutOfRange(f"q(i) requires 0 <= i <= 5, got {i}")
    return _shared(("q", i), _small, i)


def _small(i: int) -> Space:
    if i == 0:
        return Space(Poset.antichain(1), (0,))
    if i == 3:
        # 0 < 1 and 2 < 3, the chains swapped by the involution.
        return Space(Poset.from_pairs(4, [(0, 1), (2, 3)]), (3, 2, 1, 0))
    if i == 1:
        return _two_level(1, lambda a, b: False)
    if i == 2:
        return _two_level(1, lambda a, b: True)
    if i == 4:
        # 0 is the one minimal not below its own image.
        return _two_level(2, lambda a, b: a != b or a >= 1)
    return _two_level(2, lambda a, b: True)


def _two_level(k: int, below) -> Space:
    """Space on 2k points: minimals ``0..k-1``, zeta swapping ``i`` and
    ``k+i``, and ``i < k+j`` exactly when ``below(i, j)``.  ``below`` must be
    symmetric for zeta to reverse the order."""
    maximals = [1 << (k + j) for j in range(k)]
    up = [1 << i | sum(maximals[j] for j in range(k) if below(i, j)) for i in range(k)]
    return Space(Poset(up + maximals), tuple(range(k, 2 * k)) + tuple(range(k)))


def q6(m: int, n: int) -> Space:
    """Two-level bipartite space on 2n points; the first ``m`` minimals are
    exactly the ones not below their own involution image."""
    check_natural(m, "m")
    check_natural(n, "n")
    if n < 3 or not 0 <= m <= n:
        raise BadParams(f"q6 requires n >= 3 and 0 <= m <= n, got ({m}, {n})")
    return _shared(("q6", m, n), _two_level, n, lambda i, j: i != j or i >= m)


def range2_grid(n: int) -> Space:
    """Grid family of width 2: ``x_i < y_j`` unless the indices are adjacent."""
    check_natural(n, "n")
    if n < 5:
        raise BadParams(f"range2_grid requires n >= 5, got {n}")
    return _shared(("range2_grid", n), _two_level, n, lambda i, j: abs(i - j) != 1)


def crown_pair(n: int) -> Space:
    """Doubled crown on 4n points; mixed relations hold iff indices differ."""
    check_natural(n, "n")
    if n < 2:
        raise BadParams(f"crown_pair requires n >= 2, got {n}")
    return _shared(
        ("crown_pair", n),
        _two_level,
        2 * n,
        lambda i, j: (i < n) == (j < n) or i % n != j % n,
    )


def nonregular_chain3() -> Space:
    """Three-chain with the endpoints swapped: a valid space of height 2."""
    return _shared(("nonregular_chain3",), lambda: Space(Poset.chain(3), (2, 1, 0)))


def disjoint_union(a: Space, b: Space) -> Space:
    """Side-by-side union; handy for non-simple test spaces."""
    check_spaces(a=a, b=b)
    shift = a.n
    up = [*a.poset._up, *(row << shift for row in b.poset._up)]
    zeta = tuple(a.zeta) + tuple(shift + z for z in b.zeta)
    return Space(Poset(up), zeta)


# -- closed subalgebra families ------------------------------------------------


def _check_boolean_subalgebra(family, ground: frozenset[int], n: int):
    """The members of ``family`` as frozensets, after checking that they
    hold points of an ``n``-point space and form a field of subsets of
    ``ground``."""
    try:
        sets = {frozenset(x) for x in family}
    except TypeError:
        raise NotBooleanSubalgebra(f"{family!r} is not a family of sets of points") from None
    # Before any message sorts a member: points of mixed types do not sort.
    for x in frozenset().union(*sets):
        if not is_index(x, n):
            raise NotBooleanSubalgebra(f"{x!r} is not a point of the space")
    if frozenset() not in sets or ground not in sets:
        raise NotBooleanSubalgebra("family must contain the empty set and the ground set")
    for xs in sets:
        if not xs <= ground:
            raise NotBooleanSubalgebra(f"{sorted(xs)} is not a subset of the ground set")
        if ground - xs not in sets:
            raise NotBooleanSubalgebra(f"complement of {sorted(xs)} missing")
    for xs in sets:
        for ys in sets:
            if xs & ys not in sets:
                raise NotBooleanSubalgebra(
                    f"intersection of {sorted(xs)} and {sorted(ys)} missing"
                )
    return sets


def _closed_family(space: Space, sets, ground, allowed) -> list[frozenset[int]]:
    """The field ``sets``, each member's image joined with ``ground``, and the
    principal downsets of the images of the singletons inside ``allowed``."""
    members = set(sets)
    for xs in sets:
        members.add(space.zeta_image(xs) | ground)
        if len(xs) == 1 and xs <= allowed:
            (x,) = xs
            members.add(space.poset.down_closure([space.zeta[x]]))
    masks = canonical_sort(map(space.poset.mask_of, members), space.n)
    out = [Poset.set_of(m) for m in masks]
    assert all(space.poset.is_decreasing(s) for s in out)
    return out


def kf_subalgebra_q6(m: int, n: int, family) -> list[frozenset[int]]:
    """Closed three-part family on ``q6(m, n)`` built from a field of subsets
    of the minimal level: the field itself, each member's image joined with
    the whole minimal level, and the principal downsets of images of
    singletons from the first ``m`` indices."""
    space = q6(m, n)
    ground = frozenset(range(n))
    sets = _check_boolean_subalgebra(family, ground, space.n)
    return _closed_family(space, sets, ground, frozenset(range(m)))


def kf_subalgebra_crown(n: int, family_a, family_b) -> list[frozenset[int]]:
    """Analogous closed family on ``crown_pair(n)``.

    ``family_a`` and ``family_b`` are fields of subsets of the two halves of
    the minimal level (indices ``0..n-1`` and ``n..2n-1``); a singleton may
    be present in one only if its partner is present in the other.
    """
    space = crown_pair(n)
    ground_a = frozenset(range(n))
    ground_b = frozenset(range(n, 2 * n))
    sets_a = _check_boolean_subalgebra(family_a, ground_a, space.n)
    sets_b = _check_boolean_subalgebra(family_b, ground_b, space.n)
    for i in range(n):
        if (frozenset((i,)) in sets_a) != (frozenset((n + i,)) in sets_b):
            raise PairedSingletonViolation(
                f"singleton a{i}/b{i} must be present in both halves or neither"
            )
    ground = ground_a | ground_b
    sets = {ya | zb for ya in sets_a for zb in sets_b}
    return _closed_family(space, sets, ground, ground)


# -- name registry ----------------------------------------------------------


#: Token table of the parametrised families, keyed by the part before ``:``.
#: Each entry holds the constructor, its arity, the name prefix of each block
#: of n points (n is the last parameter) and the usage text of a bad token.
FAMILIES = {
    "q6": (q6, 2, ("s", "zs"), "q6:m,n with integers"),
    "grid": (range2_grid, 1, ("x", "y"), "grid:n with an integer"),
    "crown": (crown_pair, 1, ("a", "b", "za", "zb"), "crown:n with an integer"),
}

#: Printable element names of ``q(0)`` .. ``q(5)``.
_Q_NAMES = (
    ("p",),
    ("x", "zx"),
    ("x", "zx"),
    ("a", "b", "zb", "za"),
    ("x", "y", "zx", "zy"),
    ("x", "y", "zx", "zy"),
)


def named_space(token: str) -> tuple[Space, tuple[str, ...]]:
    """Resolve a catalog token (``q0``..``q5``, ``q6:m,n``, ``grid:n``,
    ``crown:n``, ``chain3``) to a space plus printable element names.
    Like a space document, a token names at most
    :data:`~pmkit.document.MAX_ELEMENTS` points; the constructors have no cap."""
    if not isinstance(token, str):
        raise BadParams(f"a catalog token must be a string, got {token!r}")
    token = token.strip()
    if token == "chain3":
        return nonregular_chain3(), ("a", "b", "c")
    prefix, colon, params = token.partition(":")
    if colon and prefix in FAMILIES:
        build, arity, prefixes, usage = FAMILIES[prefix]
        try:
            args = tuple(int(p) for p in params.split(","))
        except ValueError:
            args = ()
        if len(args) != arity:
            raise BadParams(f"expected {usage}, got {token!r}")
        size = len(prefixes) * args[-1]
        if size > MAX_ELEMENTS:
            raise BadParams(
                f"a catalog space may have at most {MAX_ELEMENTS} points, {token!r} has {size}"
            )
        space = build(*args)
        return space, tuple(f"{p}{i}" for p in prefixes for i in range(args[-1]))
    for i, names in enumerate(_Q_NAMES):
        if token == f"q{i}":
            return q(i), names
    raise BadParams(f"unknown catalog token {token!r}")
