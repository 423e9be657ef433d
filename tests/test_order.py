"""Poset substrate: closures, extrema, metrics, components, downsets."""

import random

import pytest

from pmkit import INFINITE, Distance, Poset, catalog, dual_algebra
from pmkit.errors import (
    AntisymmetryBroken,
    BadParams,
    IndexOutOfRange,
    SizeLimitExceeded,
    TransitivityBroken,
)
from pmkit.order import _closure, closed_masks, iter_bits
from pmkit.subalgebra import one_generator_growth
from support import closed, outcome, random_pairs, random_posets, up_closure


def floyd_warshall(poset):
    """Independent distance oracle over the comparability adjacency."""
    n = poset.n
    big = None  # stands for infinity
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (poset.leq(i, j) or poset.leq(j, i)):
                dist[i][j] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] is not None and dist[k][j] is not None:
                    through = dist[i][k] + dist[k][j]
                    if dist[i][j] is None or through < dist[i][j]:
                        dist[i][j] = through
    return dist


def ball(poset, x, radius):
    """All points within ``radius`` of ``x``, read off the distance levels."""
    return frozenset(y for y, d in enumerate(poset.distance_levels([x])) if d <= radius)


# -- construction -------------------------------------------------------------


def test_from_pairs_closes_transitively():
    p = Poset.from_pairs(3, [(0, 1), (1, 2)])
    assert p.leq(0, 2)
    assert p.height() == 2


def test_antisymmetry_rejected():
    with pytest.raises(AntisymmetryBroken) as err:
        Poset.from_pairs(2, [(0, 1), (1, 0)])
    assert set(err.value.witness) == {0, 1}


def test_direct_constructor_validates_transitivity():
    # 0<=1, 1<=2 without 0<=2
    rows = [0b011, 0b110, 0b100]
    with pytest.raises(TransitivityBroken):
        Poset(rows)


def test_bad_index_rejected():
    with pytest.raises(IndexOutOfRange):
        Poset.from_pairs(2, [(0, 5)])


def test_closure_matches_warshall_on_random_pairs():
    rng = random.Random(24)
    cyclic = 0
    for _ in range(400):
        n, pairs = random_pairs(rng)
        start = [1 << i for i in range(n)]
        for a, b in pairs:
            start[a] |= 1 << b
        rows = closed(start)
        assert _closure(start) == rows, (n, pairs)
        expected = outcome(lambda: Poset(rows))
        assert expected[0] in ("valid", AntisymmetryBroken), (n, pairs)
        assert outcome(lambda: Poset.from_pairs(n, pairs)) == expected, (n, pairs)
        cyclic += expected[0] is AntisymmetryBroken
    assert 20 < cyclic < 380


def test_closure_of_long_chains_and_cycles():
    assert _closure([]) == []
    n = 300
    chain = [(i, i + 1) for i in range(n - 1)]
    assert _closure([1 << i for i in range(n)]) == [1 << i for i in range(n)]
    assert Poset.from_pairs(n, chain) == Poset(closed([1 << (i + 1) for i in range(n - 1)] + [0]))
    rows = [1 << i | 1 << (i + 1) % n for i in range(n)]
    assert _closure(rows) == [(1 << n) - 1] * n
    with pytest.raises(AntisymmetryBroken, match="^0 <= 1 and 1 <= 0$"):
        Poset.from_pairs(n, chain + [(n - 1, 0)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poset([1.0, 2]),
        lambda: Poset([True]),
        lambda: Poset.from_pairs(2, [(0.0, 1)]),
        lambda: Poset.from_pairs(2, [(0, "1")]),
        lambda: Poset.from_pairs(2, [(True, 1)]),
    ],
    ids=["float-row", "bool-row", "float-pair", "str-pair", "bool-pair"],
)
def test_construction_rejects_non_int_entries(build):
    with pytest.raises(IndexOutOfRange):
        build()


@pytest.mark.parametrize("n", [-1, True, 2.0, "2"], ids=["negative", "bool", "float", "str"])
@pytest.mark.parametrize(
    "build",
    [lambda n: Poset.from_pairs(n, []), Poset.antichain, Poset.chain],
    ids=["from_pairs", "antichain", "chain"],
)
def test_size_must_be_natural(build, n):
    with pytest.raises(BadParams, match="n must be a natural number"):
        build(n)


# -- closures ------------------------------------------------------------------


def test_down_closure_empty():
    p = Poset.chain(2)
    assert p.down_closure([]) == frozenset()


def test_down_closure_chain():
    p = Poset.chain(2)
    assert p.down_closure([1]) == frozenset({0, 1})


def test_down_closure_q6_maximal_point():
    # in q6(0,3) every minimal sits below every maximal
    space = catalog.q6(0, 3)
    assert space.poset.down_closure([3]) == frozenset({0, 1, 2, 3})


def test_up_closure_empty_and_two_chain():
    space = catalog.q(2)
    assert up_closure(space.poset, []) == frozenset()
    assert up_closure(space.poset, [0]) == frozenset({0, 1})


def test_up_closure_grid_excludes_adjacent():
    # above x0: itself and every y_j except y1
    p = catalog.range2_grid(5).poset
    assert up_closure(p, [0]) == frozenset({0, 5, 7, 8, 9})


@pytest.mark.parametrize("token", ["q3", "q5", "q6:2,4", "grid:5", "crown:2"])
def test_closures_idempotent_and_monotone(token):
    space, _ = catalog.named_space(token)
    p = space.poset
    for x in range(p.n):
        down = p.down_closure([x])
        assert p.is_decreasing(down)
        assert p.down_closure(down) == down
        up = up_closure(p, [x])
        assert up_closure(p, up) == up
        assert x in down and x in up


# -- extrema -------------------------------------------------------------------


def test_antichain_extrema():
    p = Poset.antichain(3)
    assert Poset.set_of(p.minimals_mask()) == Poset.set_of(p.maximals_mask()) == frozenset({0, 1, 2})


def test_q6_extrema():
    space = catalog.q6(0, 3)
    assert Poset.set_of(space.poset.minimals_mask()) == frozenset({0, 1, 2})
    assert Poset.set_of(space.poset.maximals_mask()) == frozenset({3, 4, 5})


def test_chain_extrema():
    p = Poset.chain(2)
    assert Poset.set_of(p.minimals_mask()) == frozenset({0})
    assert Poset.set_of(p.maximals_mask()) == frozenset({1})


# -- index validation --------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: s.poset.leq("a", 0), "index 'a' is not an int"),
        (lambda s: s.poset.leq(0, 1.0), "index 1.0 is not an int"),
        (lambda s: s.poset.leq(True, 0), "index True is not an int"),
        (lambda s: s.poset.leq(0, 2), "index 2 out of range for n=2"),
        (lambda s: s.poset.leq(-1, 0), "index -1 out of range for n=2"),
        (lambda s: s.poset.min_below("a"), "index 'a' is not an int"),
        (lambda s: s.poset.min_below(False), "index False is not an int"),
        (lambda s: s.poset.mask_of([1.0]), "index 1.0 is not an int"),
        (lambda s: s.poset.down_closure([1.0]), "index 1.0 is not an int"),
        (lambda s: s.poset.distance("a", 0), "index 'a' is not an int"),
        (lambda s: s.poset.distance_to_set(True, [0]), "index True is not an int"),
        (lambda s: s.poset.distance_levels(["a"]), "index 'a' is not an int"),
        (lambda s: s.zeta_image(["a"]), "index 'a' is not an int"),
        (lambda s: s.zeta_image([True]), "index True is not an int"),
        (lambda s: s.zeta_image([2]), "index 2 out of range for n=2"),
    ],
    ids=[
        "leq-str", "leq-float", "leq-bool", "leq-high", "leq-negative",
        "min_below-str", "min_below-bool", "mask_of", "down_closure",
        "distance", "distance_to_set", "distance_levels",
        "zeta_image-str", "zeta_image-bool", "zeta_image-high",
    ],
)
def test_index_entry_points_raise_typed_errors(call, message):
    with pytest.raises(IndexOutOfRange) as err:
        call(catalog.q(2))
    assert str(err.value) == message


# -- distances -------------------------------------------------------------------


def test_distance_reflexive():
    p = catalog.range2_grid(5).poset
    assert p.distance(3, 3) == Distance(0)


def test_distance_grid_values():
    p = catalog.range2_grid(5).poset
    assert p.distance(5, 6) == Distance(2)   # between the first two maximals
    assert p.distance(5, 1) == Distance(3)   # maximal to the adjacent minimal


def test_distance_across_components_infinite():
    p = catalog.q(3).poset
    assert p.distance(0, 3) == INFINITE
    assert p.distance(0, 3).value is None


@pytest.mark.parametrize("token", ["q2", "q3", "q5", "q6:1,3", "grid:5", "crown:2", "chain3"])
def test_distance_matches_floyd_warshall(token):
    """Pairwise and set distances and distance levels, against the oracle."""
    space, _ = catalog.named_space(token)
    p = space.poset
    oracle = floyd_warshall(p)
    targets = [range(k) for k in range(p.n + 1)]
    targets += [(y, space.zeta[y]) for y in range(p.n)]
    for x in range(p.n):
        for y in range(p.n):
            got = p.distance(x, y)
            want = INFINITE if oracle[x][y] is None else Distance(oracle[x][y])
            assert got == want
        for xs in targets:
            finite = [oracle[x][y] for y in xs if oracle[x][y] is not None]
            want = Distance(min(finite)) if finite else INFINITE
            assert p.distance_to_set(x, xs) == want
        levels = [None if d == INFINITE else d.value for d in p.distance_levels([x])]
        assert levels == oracle[x]


@pytest.mark.parametrize("token", ["q5", "q6:2,4", "grid:5", "crown:2"])
def test_distance_is_metric_on_components(token):
    space, _ = catalog.named_space(token)
    p = space.poset
    for x in range(p.n):
        for y in range(p.n):
            assert p.distance(x, y) == p.distance(y, x)
            assert (p.distance(x, y) == 0) == (x == y)
            for z in range(p.n):
                assert p.distance(x, y) <= p.distance(x, z) + p.distance(z, y)


def test_distance_to_set():
    p = catalog.range2_grid(5).poset
    assert p.distance_to_set(0, []) == INFINITE
    assert p.distance_to_set(0, [0, 4]) == Distance(0)
    # y0 covers x2, so the set {x1, x2} is one step away
    assert p.distance_to_set(5, [1, 2]) == Distance(1)


def test_distance_infinite_iff_different_components(catalog_spaces):
    for _, space in catalog_spaces:
        p = space.poset
        blocks = p.order_components()
        block_of = {}
        for b in blocks:
            for x in b:
                block_of[x] = b
        for x in range(p.n):
            for y in range(p.n):
                infinite = p.distance(x, y).value is None
                assert infinite == (block_of[x] is not block_of[y])


# -- balls --------------------------------------------------------------------


def test_ball_radius_zero():
    p = catalog.q(5).poset
    assert ball(p, 1, 0) == frozenset({1})


def test_ball_one_is_point_plus_covers():
    p = catalog.q(5).poset
    assert ball(p, 0, 1) == up_closure(p, [0])


def test_ball_matches_distance_definition():
    p = catalog.range2_grid(5).poset
    for x in range(p.n):
        for radius in range(5):
            want = frozenset(
                z for z in range(p.n) if p.distance(z, x) <= radius
            )
            assert ball(p, x, radius) == want


def test_ball_parity_on_height_one(regular_spaces):
    """From a minimal element, even-radius balls are decreasing and
    odd-radius balls increasing; dually from a maximal element."""
    for _, space in regular_spaces:
        p = space.poset
        for x in Poset.set_of(p.minimals_mask()):
            for radius in range(4):
                near = ball(p, x, radius)
                if radius % 2 == 0:
                    assert p.down_closure(near) == near
                else:
                    assert up_closure(p, near) == near
        for x in Poset.set_of(p.maximals_mask()):
            for radius in range(4):
                near = ball(p, x, radius)
                if radius % 2 == 0:
                    assert up_closure(p, near) == near
                else:
                    assert p.down_closure(near) == near


# -- components and height -------------------------------------------------------


def test_components_connected():
    p = catalog.q6(2, 4).poset
    assert p.order_components() == (frozenset(range(8)),)


def test_components_two_chains():
    p = catalog.q(3).poset
    assert p.order_components() == (frozenset({0, 1}), frozenset({2, 3}))


def test_components_mixed_union():
    space = catalog.disjoint_union(catalog.q(0), catalog.q(2))
    assert space.poset.order_components() == (frozenset({0}), frozenset({1, 2}))


def test_height_values():
    assert Poset.antichain(3).height() == 0
    assert catalog.q6(1, 4).poset.height() == 1
    assert Poset.chain(3).height() == 2


# -- downsets -----------------------------------------------------------------


def test_downsets_canonical_order():
    sets = catalog.q(5).poset.downsets()
    assert len(sets) == 7
    assert sets[0] == frozenset()
    assert sets[-1] == frozenset(range(4))
    keyed = [(len(s), tuple(sorted(s))) for s in sets]
    assert keyed == sorted(keyed)


def test_downsets_are_exactly_decreasing_subsets():
    p = catalog.q6(1, 3).poset
    brute = []
    for mask in range(1 << p.n):
        members = frozenset(i for i in range(p.n) if (mask >> i) & 1)
        if p.down_closure(members) == members:
            brute.append(members)
    assert set(p.downsets()) == set(brute)


def test_downsets_limit():
    with pytest.raises(SizeLimitExceeded):
        Poset.antichain(8).downsets(limit=100)


def test_downsets_limit_is_inclusive():
    assert len(Poset.antichain(3).downsets(limit=8)) == 8
    with pytest.raises(SizeLimitExceeded):
        Poset.antichain(3).downsets(limit=7)


def test_downsets_limit_on_a_wide_antichain():
    """The limit is enforced long before a deep enumeration would start."""
    with pytest.raises(SizeLimitExceeded):
        Poset.antichain(1100).downsets(limit=5)


def test_downsets_of_a_long_chain():
    sets = Poset.chain(1100).downsets()
    assert len(sets) == 1101
    assert sets == [frozenset(range(k)) for k in range(1101)]


def test_closed_masks_match_brute_force(random_pm_space):
    """On down rows, least-member tables (with repeated rows) and congruence
    generators, the listing is every mask holding the row of each of its
    points, each once."""
    rng = random.Random(20)
    tables = []
    for _ in range(40):
        space = random_pm_space(rng)
        tables.append([space.poset.down_mask(i) for i in range(space.n)])
        tables.append([space._congruence_generator(i) for i in range(space.n)])
        # least[i]: the meet of the top and every random mask holding i
        n = rng.randint(1, 10)
        least = [(1 << n) - 1] * n
        for _ in range(rng.randint(0, 4)):
            mask = rng.getrandbits(n)
            for i in iter_bits(mask):
                least[i] &= mask
        tables.append(least)
    assert any(len(set(rows)) < len(rows) for rows in tables)
    for rows in tables:
        found = closed_masks(rows, 1 << 10, "sets")
        brute = [
            y
            for y in range(1 << len(rows))
            if all(not rows[i] & ~y for i in iter_bits(y))
        ]
        assert sorted(found) == brute, rows
    # Rows wider than a machine word.  A chain's rows each hold the previous
    # one (the points seen so far are never disjoint from the row); an
    # antichain's rows are disjoint (no point of a row was seen before).
    chain = Poset.chain(100)
    found = closed_masks([chain.down_mask(i) for i in range(100)], 1 << 10, "downsets")
    assert sorted(found) == [(1 << k) - 1 for k in range(101)]
    antichain = Poset.antichain(70)
    with pytest.raises(SizeLimitExceeded, match="^more than 1000 downsets; "):
        closed_masks([antichain.down_mask(i) for i in range(70)], 1000, "downsets")
    # a 66-chain below four free points past bit 64 mixes both kinds of row
    rows = [(1 << i + 1) - 1 for i in range(66)] + [1 << i for i in range(66, 70)]
    found = closed_masks(rows, 1 << 11, "sets")
    assert sorted(found) == sorted(
        (1 << k) - 1 | free << 66 for k in range(67) for free in range(16)
    )


def test_count_downsets_matches_the_listing(catalog_spaces, random_pm_space):
    rng = random.Random(22)
    posets = [space.poset for _, space in catalog_spaces]
    posets += [random_pm_space(rng).poset for _ in range(60)]
    posets += random_posets(rng, 200)
    for poset in posets:
        assert poset.count_downsets() == len(poset.downset_masks()), poset


def two_level_count(space):
    """Downsets of a two-level space: a set A of minimals, with any of the
    maximals whose minimals below lie in A."""
    k = space.n // 2
    below = [space.poset.down_mask(k + j) & ~(1 << k + j) for j in range(k)]
    return sum(2 ** sum(not row & ~a for row in below) for a in range(1 << k))


def test_count_downsets_of_two_level_spaces():
    rng = random.Random(23)
    spaces = [catalog.q6(m, n) for n in range(3, 7) for m in (0, n // 2, n)]
    spaces += [catalog.range2_grid(n) for n in range(5, 10)]
    spaces += [catalog.crown_pair(n) for n in range(2, 4)]
    for _ in range(40):
        k, p = rng.randint(1, 8), rng.random()
        edges = {(i, j) for i in range(k) for j in range(i, k) if rng.random() < p}
        spaces.append(catalog._two_level(k, lambda i, j: (min(i, j), max(i, j)) in edges))
    for space in spaces:
        assert space.poset.count_downsets() == two_level_count(space)


@pytest.mark.parametrize(
    "build,count",
    [
        (lambda: catalog.q6(0, 21).poset, 4_194_303),
        (lambda: catalog.q6(5, 40).poset, 2_199_023_255_556),
        (lambda: catalog.range2_grid(30).poset, 2_147_483_761),
        (lambda: Poset.chain(2000), 2001),
        (lambda: Poset.antichain(1100), 2**1100),
    ],
    ids=["q6:0,21", "q6:5,40", "grid:30", "chain2000", "antichain1100"],
)
def test_count_downsets_past_the_listing_limit(build, count):
    """Far past what listing reaches, and deeper than Python's recursion
    limit on the long chain."""
    assert build().count_downsets() == count


def test_count_downsets_budget_bounds_the_count():
    """Running out of budget proves more than ``limit`` downsets: a budget
    of the count itself always suffices, and an overrun says so."""
    rng = random.Random(25)
    for poset in random_posets(rng, 100):
        count = poset.count_downsets()
        assert poset.count_downsets(limit=count) == count
        # the budget counts branchings, so only small ones can run out
        for limit in range(min(count, 40)):
            try:
                assert poset.count_downsets(limit=limit) == count
            except SizeLimitExceeded as exc:
                assert count > limit
                assert str(exc).startswith(f"more than {limit} downsets")
    with pytest.raises(SizeLimitExceeded, match="more than 5 downsets"):
        Poset.chain(10).count_downsets(limit=5)


@pytest.mark.parametrize("limit", ["x", -1, 1.5, True, None])
@pytest.mark.parametrize(
    "call",
    [
        lambda limit: Poset.antichain(3).downsets(limit=limit),
        lambda limit: dual_algebra(catalog.q(2), limit=limit),
        lambda limit: one_generator_growth(5, limit=limit),
        lambda limit: Poset.antichain(3).count_downsets(limit=limit),
    ],
    ids=["downsets", "dual_algebra", "growth", "count_downsets"],
)
def test_limit_must_be_natural(call, limit):
    with pytest.raises(BadParams, match="limit must be a natural number"):
        call(limit)


# -- Distance value type ----------------------------------------------------------


def test_distance_ordering():
    assert Distance(2) < Distance(3) < INFINITE
    assert Distance(2) <= 2
    assert INFINITE > 10**9
    assert INFINITE == INFINITE
    assert INFINITE + 1 == INFINITE
    assert Distance(1) + Distance(2) == Distance(3)
    assert Distance(1) != True  # noqa: E712


def test_distance_rejects_negative():
    with pytest.raises(BadParams):
        Distance(-1)
