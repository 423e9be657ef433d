"""The mask-native validation of ``Poset`` and ``Space`` against the plain
loops it replaced, on seeded random relations with injected faults.

Each reference below scans pairs in the original order; the fast paths must
raise the same exception class with the same message and witness, and on a
valid input cache the same extremal masks and hashes.
"""

import random

from pmkit import Poset, Space
from pmkit.errors import (
    AntisymmetryBroken,
    IndexOutOfRange,
    InvolutionBroken,
    OrderReversalBroken,
    ReflexivityBroken,
    TransitivityBroken,
)
from pmkit.order import iter_bits
from support import closed, outcome


def reference_poset_check(up):
    """Validate bit rows pair by pair; return the down rows."""
    n = len(up)
    all_mask = (1 << n) - 1
    for i in range(n):
        if up[i] & ~all_mask:
            raise IndexOutOfRange(f"row {i} mentions indices >= {n}")
        if not (up[i] >> i) & 1:
            raise ReflexivityBroken(f"{i} not <= {i}", witness=(i, i))
    for i in range(n):
        for j in iter_bits(up[i]):
            if i != j and (up[j] >> i) & 1:
                raise AntisymmetryBroken(f"{i} <= {j} and {j} <= {i}", witness=(i, j))
            if up[j] & ~up[i]:
                k = next(iter_bits(up[j] & ~up[i]))
                raise TransitivityBroken(
                    f"{i} <= {j} <= {k} but not {i} <= {k}", witness=(i, j, k)
                )
    down = [0] * n
    for i in range(n):
        for j in iter_bits(up[i]):
            down[j] |= 1 << i
    return down


def reference_extrema(up, down):
    minimals = maximals = 0
    for i in range(len(up)):
        if down[i] == 1 << i:
            minimals |= 1 << i
        if up[i] == 1 << i:
            maximals |= 1 << i
    return minimals, maximals


def reference_space_check(up, zeta):
    n = len(up)
    if len(zeta) != n or any(not 0 <= z < n for z in zeta):
        raise IndexOutOfRange("zeta must be a permutation of 0..n-1")
    for x in range(n):
        if zeta[zeta[x]] != x:
            raise InvolutionBroken(
                f"zeta(zeta({x})) = {zeta[zeta[x]]} != {x}", witness=(x, zeta[x])
            )
    for x in range(n):
        for y in iter_bits(up[x]):
            if not up[zeta[y]] >> zeta[x] & 1:
                raise OrderReversalBroken(
                    f"{x} <= {y} but not zeta({y}) <= zeta({x})", witness=(x, y)
                )


class TupleHash:
    """Stands in for a poset in a hashed tuple with the hash of its up rows."""

    def __init__(self, up):
        self.up = tuple(up)

    def __hash__(self):
        return hash(self.up)


def faulty(rng, space):
    """Up rows and a zeta from ``space``, with at most one fault injected."""
    n = space.n
    up, zeta = [space.poset.up_mask(x) for x in range(n)], list(space.zeta)
    i, j = rng.sample(range(n), 2)
    fault = rng.choice(("none", "reflexivity", "cycle", "drop", "edge", "zeta", "pairing", "row"))
    if fault == "reflexivity":
        up[i] &= ~(1 << i)
    elif fault == "cycle":
        # close a cycle through a comparable pair (or any pair): the closure
        # keeps the rows transitive, so only antisymmetry can fail.
        above = up[i] & ~(1 << i)
        if above:
            j = rng.choice(list(iter_bits(above)))
        up[i] |= 1 << j
        up[j] |= 1 << i
        up = closed(up)
    elif fault == "drop":
        above = up[i] & ~(1 << i)
        if above:
            up[i] &= ~(1 << rng.choice(list(iter_bits(above))))
    elif fault == "edge":
        up[i] |= 1 << j
        up = closed(up)
    elif fault == "zeta":
        zeta[i] = j
    elif fault == "pairing":
        points = list(range(n))
        rng.shuffle(points)
        for a, b in zip(points[::2], points[1::2]):
            if rng.random() < 0.7:
                zeta[a], zeta[b] = b, a
            else:
                zeta[a], zeta[b] = a, b
        if n % 2:
            zeta[points[-1]] = points[-1]
    elif fault == "row":
        up[i] |= 1 << (n + rng.randrange(2))
    return up, zeta


def test_construction_matches_reference_loops(random_pm_space):
    rng = random.Random(20261018)
    seen = set()
    for _ in range(3000):
        up, zeta = faulty(rng, random_pm_space(rng))
        ref = outcome(lambda: reference_poset_check(up))
        got = outcome(lambda: Poset(up))
        if ref[0] == "valid" and got[0] == "valid":
            poset, down = got[1], ref[1]
            assert (poset.minimals_mask(), poset.maximals_mask()) == reference_extrema(up, down)
            assert [poset.down_mask(x) for x in range(len(up))] == down
            assert hash(poset) == hash(tuple(up))
            ref = outcome(lambda: reference_space_check(up, zeta))
            got = outcome(lambda: Space(poset, zeta))
        assert got[0] == ref[0]
        if ref[0] == "valid":
            space = got[1]
            assert hash(space) == hash((TupleHash(up), tuple(zeta)))
            assert space.is_regular() == (height(up) <= 1)
        else:
            assert got == ref
        seen.add(ref[0])
    assert seen == {
        "valid",
        IndexOutOfRange,
        ReflexivityBroken,
        AntisymmetryBroken,
        TransitivityBroken,
        InvolutionBroken,
        OrderReversalBroken,
    }


def height(up):
    """Length of a longest chain, from the rows alone."""
    memo = {}

    def above(i):
        if i not in memo:
            strict = up[i] & ~(1 << i)
            memo[i] = max((above(j) + 1 for j in iter_bits(strict)), default=0)
        return memo[i]

    return max(map(above, range(len(up))), default=0)
