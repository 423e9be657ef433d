"""Map checking, surjective search, isomorphism, and the bipartite criteria."""

import contextlib
import inspect
import itertools
import random
import sys

import pytest

from pmkit import (
    MorphismMap,
    Poset,
    SearchReport,
    Space,
    catalog,
    check_pm_morphism,
    check_q6_criteria,
    is_pm_isomorphic,
    morphism,
    search_surjective,
)
from pmkit.cli import main as cli_main
from pmkit.document import format_space
from pmkit.errors import (
    BadParams,
    IndexOutOfRange,
    NotQ6Shaped,
    OrderReversalBroken,
    SearchBudgetExceeded,
)
from pmkit.morphism import DEFAULT_BUDGET, Q6CriteriaReport, _q6_shape, _search_tables
from pmkit.order import iter_bits
from support import random_pm_space, relabel


# -- check_pm_morphism ------------------------------------------------------------


def test_identity_is_a_morphism(catalog_spaces):
    for name, space in catalog_spaces:
        assert check_pm_morphism(space, space, tuple(range(space.n))).ok, name


def test_swapped_pair_onto_chain_fails_minimals():
    # sending the antichain pair onto the chain respects order and the
    # involution but manufactures a minimal below the image of the top
    src, dst = catalog.q(1), catalog.q(2)
    report = check_pm_morphism(src, dst, (0, 1))
    assert not report.ok
    assert report.clause == "minimals"


def test_order_violation_reported():
    src, dst = catalog.q(2), catalog.q(1)
    report = check_pm_morphism(src, dst, (0, 1))
    assert not report.ok and report.clause == "order"


def test_involution_violation_reported():
    src = dst = catalog.q(1)
    report = check_pm_morphism(src, dst, (0, 0))
    assert not report.ok and report.clause == "involution"


def test_mapping_must_be_total_and_in_range():
    with pytest.raises(IndexOutOfRange):
        MorphismMap(catalog.q(2), catalog.q(2), (0,))
    with pytest.raises(IndexOutOfRange):
        MorphismMap(catalog.q(2), catalog.q(2), (0, 5))


@pytest.mark.parametrize("image", [0.0, True, "0", None], ids=["float", "bool", "str", "none"])
@pytest.mark.parametrize(
    "entry",
    [MorphismMap, check_pm_morphism, check_q6_criteria],
    ids=["MorphismMap", "check_pm_morphism", "check_q6_criteria"],
)
def test_mapping_images_must_be_ints(entry, image):
    with pytest.raises(IndexOutOfRange, match="is not an int"):
        entry(catalog.q6(1, 3), catalog.q6(0, 3), (image, 1, 2, 3, 4, 5))


def test_mapping_is_kept_as_a_tuple():
    space = catalog.q(2)
    as_list, as_tuple = MorphismMap(space, space, [0, 1]), MorphismMap(space, space, (0, 1))
    assert as_list.mapping == (0, 1)
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)


def test_block_construction_passes_all_checks():
    """The explicit block map: a matched part bijects, exceptional points
    collapse in pairs onto fresh targets, the free parts biject."""
    src = catalog.q6(2, 4)   # exceptional minimals 0, 1; free 2, 3
    dst = catalog.q6(0, 3)
    # collapse the two exceptional sources onto target 0, biject the rest
    phi = [0, 0, 1, 2] + [dst.zeta[0], dst.zeta[0], dst.zeta[1], dst.zeta[2]]
    assert check_pm_morphism(src, dst, phi).ok
    assert set(phi) == set(range(dst.n))
    report = check_q6_criteria(src, dst, phi)
    assert report.ok


# -- surjective search ---------------------------------------------------------


KNOWN_SEARCHES = [
    ("q6:0,4", "q6:0,3", True),
    ("q6:0,3", "q5", True),
    ("q5", "q2", True),
    ("q2", "q0", True),
    ("q5", "q6:0,3", False),
    ("q2", "q5", False),
    ("q0", "q2", False),
    ("q6:3,3", "q5", False),
    ("q6:1,3", "q5", True),
    ("q6:1,3", "q4", True),
    ("q6:0,3", "q4", False),
    ("q3", "q1", True),
    ("q2", "q1", False),
    ("q4", "q2", True),
    ("q3", "q2", True),
]


@pytest.mark.parametrize("src_token,dst_token,expected", KNOWN_SEARCHES)
def test_search_known_cases(src_token, dst_token, expected):
    src, _ = catalog.named_space(src_token)
    dst, _ = catalog.named_space(dst_token)
    report = search_surjective(src, dst)
    assert report.found == expected
    if expected:
        assert report.witness is not None
        assert report.witness.check().ok
        assert set(report.witness.mapping) == set(range(dst.n))
    else:
        assert report.witness is None


def test_search_counts_nodes():
    report = search_surjective(catalog.q6(0, 4), catalog.q6(0, 3))
    assert report.nodes_explored > 0


def brute_force_surjective_exists(src, dst):
    """Enumeration oracle: try every total map, no pruning at all."""
    for mapping in itertools.product(range(dst.n), repeat=src.n):
        if len(set(mapping)) == dst.n and check_pm_morphism(src, dst, mapping).ok:
            return True
    return False


def test_search_agrees_with_enumeration():
    """The pruned search and the unpruned enumeration agree on every pair
    of small catalog spaces."""
    tokens = ["q0", "q1", "q2", "q3", "q4", "q5", "q6:0,3", "q6:1,3", "q6:3,3"]
    spaces = [catalog.named_space(t)[0] for t in tokens]
    for src in spaces:
        for dst in spaces:
            if dst.n > 4 and src.n > 4 and src is not dst:
                continue  # keep the enumeration side tractable
            assert (
                search_surjective(src, dst).found
                == brute_force_surjective_exists(src, dst)
            )


def test_iso_agrees_with_permutation_enumeration():
    """The isomorphism search agrees with checking every bijection."""
    tokens = ["q1", "q2", "q3", "q4", "q5", "q6:0,3", "q6:2,3", "chain3"]
    spaces = [catalog.named_space(t)[0] for t in tokens]
    # Height 2: a diamond maps bijectively onto a chain by a structure map,
    # yet the two are not isomorphic.
    diamond = Space(Poset.from_pairs(4, [(2, 0), (2, 1), (0, 3), (1, 3)]), (1, 0, 3, 2))
    chain = Space(Poset.from_pairs(4, [(0, 3), (3, 2), (2, 1)]), (1, 0, 3, 2))
    assert check_pm_morphism(diamond, chain, (2, 3, 0, 1)).ok
    spaces += [diamond, chain]
    for a in spaces:
        for b in spaces:
            if a.n != b.n:
                assert not is_pm_isomorphic(a, b)
                continue
            brute = any(
                check_pm_morphism(a, b, perm).ok
                and check_pm_morphism(
                    b, a, tuple(perm.index(t) for t in range(b.n))
                ).ok
                for perm in itertools.permutations(range(a.n))
            )
            assert is_pm_isomorphic(a, b) == brute


def test_search_is_deterministic():
    a = search_surjective(catalog.q6(1, 4), catalog.q6(1, 3))
    b = search_surjective(catalog.q6(1, 4), catalog.q6(1, 3))
    assert a == b


def test_search_budget_error():
    # crown 5 -> 4 takes 260 nodes
    with pytest.raises(SearchBudgetExceeded):
        search_surjective(catalog.crown_pair(5), catalog.crown_pair(4), budget=50)


def test_search_budget_error_says_how_far_it_got():
    message = r"^search exceeded 50 assignment attempts \(deepest: 8 of 20 points\)$"
    with pytest.raises(SearchBudgetExceeded, match=message):
        search_surjective(catalog.crown_pair(5), catalog.crown_pair(4), budget=50)
    with pytest.raises(SearchBudgetExceeded, match=r"\(deepest: 0 of 20 points\)$"):
        search_surjective(catalog.crown_pair(5), catalog.crown_pair(4), budget=0)


@pytest.mark.parametrize(
    "src, dst, bound",
    [
        # 17,106 and 60,620 nodes without the candidate filters and twins
        (catalog.crown_pair(4), catalog.crown_pair(3), 2_500),
        (catalog.q6(7, 7), catalog.q6(3, 7), 100),
    ],
    ids=["crown4-crown3", "q6(7,7)-q6(3,7)"],
)
def test_pruning_bounds_negative_searches(src, dst, bound):
    report = search_surjective(src, dst)
    assert not report.found
    assert report.nodes_explored <= bound


def test_crowns_are_rigid_up_to_seven():
    """The doubled crowns form an antichain: one maps onto another exactly
    when they are the same crown, for every pair up to 7 (criterion 8
    stops at 5)."""
    for m, n in itertools.product(range(2, 8), repeat=2):
        report = search_surjective(catalog.crown_pair(m), catalog.crown_pair(n))
        assert report.found == (m == n), (m, n)


def test_search_node_counts_are_pinned(capsys):
    """Exact node counts: a change to the search's bookkeeping that keeps
    its branching must keep every one of them."""
    for m, n, found, nodes in [(4, 3, False, 48), (5, 4, False, 260), (5, 5, True, 35)]:
        report = search_surjective(catalog.crown_pair(m), catalog.crown_pair(n))
        assert (report.found, report.nodes_explored) == (found, nodes), (m, n)
    for src, dst in ROOT_REFUTED:
        assert search_surjective(src, dst).nodes_explored == 0
    spaces = [catalog.q6(m, n) for n in range(3, 7) for m in range(n + 1)]
    assert len(spaces) ** 2 == 484
    total = sum(
        search_surjective(src, dst).nodes_explored
        for src, dst in itertools.product(spaces, repeat=2)
    )
    assert total == 20_142
    # the count the README quotes
    assert cli_main(["morphism", "crown:4", "crown:3"]) == 1
    assert "nodes: 48" in capsys.readouterr().out.splitlines()


#: Questions the candidate masks refute before the first placement.  The
#: maximals of ``q6(7, 7)`` have 6 minimals below them, so the 4 maximals of
#: ``q6(3, 7)`` with 7 below are in no mask.  The one minimal of ``q6(7, 8)``
#: below its partner has an empty mask: no minimal of ``q6(8, 8)`` is.
ROOT_REFUTED = [
    (catalog.q6(7, 7), catalog.q6(3, 7)),
    (catalog.q6(7, 8), catalog.q6(8, 8)),
]


def test_questions_refuted_at_the_root_do_no_search_work(monkeypatch):
    """No attempt is made on them, so not even budget 0 is exceeded."""

    def no_work(*args):
        raise AssertionError("a question refuted at the root reached the search")

    monkeypatch.setattr(morphism, "_narrow", no_work)
    monkeypatch.setattr(morphism, "check_pm_morphism", no_work)
    for src, dst in ROOT_REFUTED:
        for budget in (DEFAULT_BUDGET, 0):
            assert search_surjective(src, dst, budget) == SearchReport(False, None, 0)


def test_search_on_empty_spaces():
    empty = Space(Poset.antichain(0), ())
    report = search_surjective(empty, empty)
    assert report.found and report.witness.mapping == () and report.nodes_explored == 0
    report = search_surjective(catalog.crown_pair(2), empty)
    assert (report.found, report.witness, report.nodes_explored) == (False, None, 0)
    assert is_pm_isomorphic(empty, empty)
    assert not is_pm_isomorphic(empty, catalog.nonregular_chain3())


@contextlib.contextmanager
def _shallow_stack():
    """Python's recursion limit set 100 frames above the current depth, and
    restored on exit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """300 fixed points take 300 placements, three times the frames left.
    Point k tries the k used targets and then k itself."""
    space = Space(Poset.antichain(300), range(300))
    with _shallow_stack():
        report = search_surjective(space, space)
        assert is_pm_isomorphic(space, space)
    assert report.found and report.witness.mapping == tuple(range(300))
    assert report.nodes_explored == 45_150


def test_cli_iso_depth_is_not_bounded_by_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "fixed.json"
    path.write_text(format_space(Space(Poset.antichain(300), range(300))))
    with _shallow_stack():
        code = cli_main(["iso", str(path), str(path)])
    assert (code, capsys.readouterr().out) == (0, "isomorphic: true\n")


@pytest.mark.parametrize("budget", [-3, 1.5, True, "10", None])
@pytest.mark.parametrize(
    "question",
    [
        lambda budget: search_surjective(catalog.crown_pair(3), catalog.crown_pair(2), budget),
        lambda budget: search_surjective(catalog.q6(0, 3), catalog.q6(0, 4), budget),
        lambda budget: is_pm_isomorphic(catalog.q6(1, 4), catalog.q6(2, 4), budget),
        lambda budget: is_pm_isomorphic(catalog.q6(0, 3), catalog.q6(0, 4), budget),
    ],
    # "sized": decided by the sizes alone, before any search starts.
    ids=["search", "search-sized", "iso", "iso-sized"],
)
def test_search_budget_must_be_natural(question, budget):
    with pytest.raises(BadParams, match="budget must be a natural number"):
        question(budget)


def test_surjective_witness_preserves_extrema():
    """Found witnesses map the minimal level onto the minimal level and
    push exactly the minimals below each point."""
    cases = [(catalog.q6(1, 4), catalog.q6(1, 3)), (catalog.q6(0, 3), catalog.q(5))]
    for src, dst in cases:
        witness = search_surjective(src, dst).witness
        phi = witness.mapping
        mins, maxs = src.poset.minimals_mask(), src.poset.maximals_mask()
        assert {phi[x] for x in iter_bits(mins)} == Poset.set_of(dst.poset.minimals_mask())
        assert {phi[x] for x in iter_bits(maxs)} == Poset.set_of(dst.poset.maximals_mask())
        for x in range(src.n):
            assert dst.poset.min_below(phi[x]) == frozenset(
                phi[y] for y in src.poset.min_below(x)
            )


def test_composition_of_witnesses_is_a_morphism():
    first = search_surjective(catalog.q6(0, 4), catalog.q6(0, 3)).witness
    second = search_surjective(catalog.q6(0, 3), catalog.q(5)).witness
    composed = tuple(second.mapping[t] for t in first.mapping)
    assert check_pm_morphism(catalog.q6(0, 4), catalog.q(5), composed).ok
    assert len(set(composed)) == 4


def test_mutual_surjections_imply_isomorphism(catalog_spaces):
    small = [(n, s) for n, s in catalog_spaces if s.n <= 6]
    for name_a, a in small:
        for name_b, b in small:
            if a.n != b.n:
                continue
            if (
                search_surjective(a, b).found
                and search_surjective(b, a).found
            ):
                assert is_pm_isomorphic(a, b), (name_a, name_b)


# -- isomorphism -----------------------------------------------------------------


def test_iso_under_relabelling():
    space = catalog.q6(1, 4)
    # relabel by rotating the free minimal elements
    perm = [0, 2, 3, 1, 4, 6, 7, 5]
    assert is_pm_isomorphic(space, relabel(space, perm))


def test_iso_negative_cases():
    assert not is_pm_isomorphic(catalog.q6(1, 4), catalog.q6(2, 4))
    assert not is_pm_isomorphic(catalog.q(4), catalog.q(5))
    assert not is_pm_isomorphic(catalog.q(1), catalog.q(2))


def test_iso_reflexive(catalog_spaces):
    for name, space in catalog_spaces:
        assert is_pm_isomorphic(space, space), name


# -- the four-clause criteria -----------------------------------------------------


def q6_params_of(space):
    """``(m, n, minimal exceptions)`` of a q6-shaped space, read off its
    shape; the exceptions are the minimals not below their own image."""
    n, _, exceptions, _ = _q6_shape(space)
    return exceptions.bit_count(), n, frozenset(iter_bits(exceptions))


def test_q6_params_recognised():
    m, n, exceptions = q6_params_of(catalog.q6(2, 5))
    assert (m, n) == (2, 5)
    assert exceptions == frozenset({0, 1})


def test_q6_params_rejects_other_shapes():
    with pytest.raises(NotQ6Shaped):
        q6_params_of(catalog.q(5))
    with pytest.raises(NotQ6Shaped):
        q6_params_of(catalog.range2_grid(5))


def test_q6_params_follow_a_relabelling():
    rng = random.Random(11)
    for n in (3, 4, 5):
        for m in range(n + 1):
            space = catalog.q6(m, n)
            perm = rng.sample(range(space.n), space.n)
            params = q6_params_of(relabel(space, perm))
            assert params == (m, n, frozenset(perm[x] for x in range(m)))


@pytest.mark.parametrize(
    "other, message",
    [
        (catalog.q(5), "disjoint minimal/maximal levels"),
        (catalog.range2_grid(5), "below each other's images"),
        (catalog.crown_pair(2), "below each other's images"),
        (catalog.nonregular_chain3(), "disjoint minimal/maximal levels"),
    ],
    ids=["q5", "grid5", "crown2", "chain3"],
)
def test_criteria_reject_other_shapes(other, message):
    q6 = catalog.q6(1, 3)
    with pytest.raises(NotQ6Shaped, match=message):
        check_q6_criteria(other, q6, [0] * other.n)
    with pytest.raises(NotQ6Shaped, match=message):
        check_q6_criteria(q6, other, [0] * q6.n)


def test_zeta_swaps_the_two_levels_of_every_space(catalog_spaces):
    """An involution that reverses the order reverses it both ways, so it
    sends the minimals onto the maximals: ``_q6_shape`` needs no test of
    its own that the two levels are swapped.  An involution sending a
    minimal point elsewhere is refused when the space is built."""
    rng = random.Random(3)
    spaces = [space for _, space in catalog_spaces] + [random_pm_space(rng) for _ in range(200)]
    for space in spaces:
        p = space.poset
        images = sum(1 << space.zeta[x] for x in iter_bits(p.minimals_mask()))
        assert images == p.maximals_mask(), space
    with pytest.raises(OrderReversalBroken):
        Space(Poset.chain(3), (1, 0, 2))


def test_criteria_refuse_a_map_that_does_not_commute_with_zeta():
    """The map is onto the target level but sends ``zeta(0)`` to 4, not to
    ``zeta(phi(0)) = 3``."""
    src, dst = catalog.q6(1, 3), catalog.q6(0, 3)
    phi = (0, 1, 2, 4, 3, 5)
    report = check_q6_criteria(src, dst, phi)
    assert not report.level_onto_and_equivariant and not report.ok
    assert check_pm_morphism(src, dst, phi).clause == "involution"


def test_criteria_validate_the_mapping():
    space = catalog.q6(1, 3)
    for bad in ([0] * 5, [6] + [0] * 5, [-1] + [0] * 5):
        with pytest.raises(IndexOutOfRange):
            check_q6_criteria(space, space, bad)


def test_criteria_follow_a_relabelling():
    """Relabelling both spaces and conjugating the map leaves every clause
    verdict unchanged, and the verdict still equals the direct check."""
    rng = random.Random(7)
    verdicts = set()
    for n, q in itertools.product((3, 4), repeat=2):
        for m, p in itertools.product(range(n + 1), range(q + 1)):
            src, dst = catalog.q6(m, n), catalog.q6(p, q)
            sigma = rng.sample(range(src.n), src.n)
            tau = rng.sample(range(dst.n), dst.n)
            src2, dst2 = relabel(src, sigma), relabel(dst, tau)
            for _ in range(40):
                # Half the maps keep the levels, half may send minimals up.
                targets = q if rng.random() < 0.5 else dst.n
                phi = [0] * src.n
                for i in range(n):
                    phi[i] = rng.randrange(targets)
                    phi[n + i] = dst.zeta[phi[i]]
                conjugated = [0] * src.n
                for x in range(src.n):
                    conjugated[sigma[x]] = tau[phi[x]]
                report = check_q6_criteria(src2, dst2, conjugated)
                assert report == check_q6_criteria(src, dst, phi), (m, n, p, q, phi)
                direct = (
                    check_pm_morphism(src2, dst2, conjugated).ok
                    and len(set(conjugated)) == dst.n
                )
                assert report.ok == direct, (m, n, p, q, phi)
                verdicts.add(report.ok)
    assert verdicts == {True, False}


def test_criteria_identity_map():
    space = catalog.q6(1, 3)
    report = check_q6_criteria(space, space, tuple(range(space.n)))
    assert report.ok


def test_criteria_collapsed_exceptional_pair_rejected():
    """A map sending two preimages of the exceptional target set to one
    point breaks the injectivity clause."""
    src, dst = catalog.q6(2, 3), catalog.q6(1, 3)
    phi = [0] * src.n
    for i, t in enumerate((0, 0, 1)):
        phi[i] = t
        phi[3 + i] = dst.zeta[t]
    report = check_q6_criteria(src, dst, phi)
    assert not report.injective_on_exception_preimage
    assert not report.ok
    assert not (
        check_pm_morphism(src, dst, phi).ok and len(set(phi)) == dst.n
    )


def test_criteria_match_full_check_small_sweep():
    """Exhaustive agreement between the clause verdict and the direct
    morphism-plus-surjectivity check, over all equivariant maps at n = q = 3."""
    for m in range(4):
        src = catalog.q6(m, 3)
        for p in range(4):
            dst = catalog.q6(p, 3)
            for choice in itertools.product(range(dst.n), repeat=3):
                phi = [0] * src.n
                for i in range(3):
                    phi[i] = choice[i]
                    phi[3 + i] = dst.zeta[choice[i]]
                verdict = check_q6_criteria(src, dst, phi).ok
                direct = (
                    check_pm_morphism(src, dst, phi).ok and len(set(phi)) == dst.n
                )
                assert verdict == direct, (m, p, phi)


def test_criteria_match_full_check_up_to_five():
    """The same agreement at sizes up to 5, over the level-respecting
    equivariant maps (images of minimals among the minimals)."""
    for n in (3, 4, 5):
        for m in range(n + 1):
            src = catalog.q6(m, n)
            for q in (3, 4, 5):
                for p in range(q + 1):
                    dst = catalog.q6(p, q)
                    for choice in itertools.product(range(q), repeat=n):
                        phi = [0] * src.n
                        for i in range(n):
                            phi[i] = choice[i]
                            phi[n + i] = dst.zeta[choice[i]]
                        verdict = check_q6_criteria(src, dst, phi).ok
                        direct = (
                            check_pm_morphism(src, dst, phi).ok
                            and len(set(phi)) == dst.n
                        )
                        assert verdict == direct, (m, n, p, q, phi)


def _mask(points):
    return sum(1 << x for x in points)


def reference_q6_criteria(src, dst, mapping):
    """The clause check as it was before it validated the map itself: a
    ``MorphismMap`` validates the map, the level is walked with
    ``iter_bits``, and the last clause is a second pass over the exceptional
    points outside the preimage."""
    s_level, exc_src = src.poset.minimals_mask(), _mask(q6_params_of(src)[2])
    t_level, exc_dst = dst.poset.minimals_mask(), _mask(q6_params_of(dst)[2])
    phi = MorphismMap(src, dst, tuple(mapping)).mapping
    image = preimage = preimage_image = once = twice = 0
    equivariant = injective = True
    for x in iter_bits(s_level):
        t = phi[x]
        bit = 1 << t
        image |= bit
        if phi[src.zeta[x]] != dst.zeta[t]:
            equivariant = False
        if bit & exc_dst:
            preimage |= 1 << x
            if bit & preimage_image:
                injective = False
            preimage_image |= bit
        else:
            twice |= once & bit
            once |= bit
    clause1 = image == t_level and equivariant
    clause2 = not preimage & ~exc_src
    clause4 = all((twice >> phi[x]) & 1 for x in iter_bits(exc_src & ~preimage))
    return Q6CriteriaReport(clause1, clause2, injective, clause4)


def reference_q6_sweep(sizes):
    """The maps of the criterion-14 sweep as it first built them: a fresh
    target per source and each map a list filled in place.  Yields
    ``(src, dst, phi)`` for the sources ``q6(m, n)`` with ``n`` in
    ``sizes``; the criterion runs ``sizes = (3, 4)``."""
    for n in sizes:
        for m in range(n + 1):
            src = catalog.q6(m, n)
            for q in (3, 4):
                for p in range(q + 1):
                    dst = catalog.q6(p, q)
                    for choice in itertools.product(range(dst.n), repeat=n):
                        phi = [0] * src.n
                        for i in range(n):
                            phi[i] = choice[i]
                            phi[n + i] = dst.zeta[choice[i]]
                        yield src, dst, phi


def test_criteria_match_reference_on_the_sweep():
    """Over the n = 3 slice of the criterion-14 sweep: the map built as the
    criterion builds it, a choice paired with the partner half from a
    product over zeta, equals the one filled in place, the clause reports
    equal the reference, and testing surjectivity before the full check
    gives the verdict of the full check before surjectivity."""
    targets = [catalog.q6(p, q) for q in (3, 4) for p in range(q + 1)]
    criterion_maps = (
        choice + partners
        for _ in range(4)
        for dst in targets
        for choice, partners in zip(
            itertools.product(range(dst.n), repeat=3),
            itertools.product(dst.zeta, repeat=3),
        )
    )
    checked = 0
    for (src, dst, phi), built in zip(reference_q6_sweep((3,)), criterion_maps, strict=True):
        assert built == tuple(phi)
        report = check_q6_criteria(src, dst, built)
        assert report == reference_q6_criteria(src, dst, phi), (src, dst, phi)
        surjective_first = len(set(built)) == dst.n and check_pm_morphism(src, dst, built).ok
        check_first = check_pm_morphism(src, dst, phi).ok and len(set(phi)) == dst.n
        assert report.ok == surjective_first == check_first, (src, dst, phi)
        checked += 1
    assert checked == 4 * (4 * 6**3 + 5 * 8**3)


def test_q6_criteria_report_surface():
    """The report is built by position or keyword, has its four clauses as
    fields in order, is immutable, and compares and hashes by value."""
    names = [
        "level_onto_and_equivariant",
        "exception_preimage_inside",
        "injective_on_exception_preimage",
        "collapsed_exceptions_witnessed",
    ]
    assert list(inspect.signature(Q6CriteriaReport).parameters) == names
    by_position = Q6CriteriaReport(True, True, False, True)
    by_keyword = Q6CriteriaReport(**dict(zip(names, (True, True, False, True))))
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, name) for name in names] == [True, True, False, True]
    assert not by_position.ok and Q6CriteriaReport(True, True, True, True).ok
    assert by_position != Q6CriteriaReport(True, True, True, True)
    with pytest.raises(AttributeError):
        by_position.exception_preimage_inside = False
    with pytest.raises(AttributeError):
        by_position.ok = True


def test_sweep_has_few_surjective_maps():
    """Only the surjective maps of criterion 14 reach the full map check."""
    maps = surjective = 0
    for _, dst, phi in reference_q6_sweep((3, 4)):
        maps += 1
        surjective += len(set(phi)) == dst.n
    assert (maps, surjective) == (142016, 21888)


def _raised(func, *args):
    try:
        func(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "bad",
    [
        [0] * 5,
        [0] * 7,
        [6] + [0] * 5,
        [0] * 5 + [-1],
        [0.0] + [0] * 5,
        [True] + [0] * 5,
        [0, 0, "0", 0, 0, 0],
        [0] * 5 + [None],
        [7, 0.5, 0, 0, 0, 0],
    ],
    ids=["short", "long", "above", "negative", "float", "bool", "str", "none", "float-and-above"],
)
def test_invalid_maps_rejected_like_reference(bad):
    """One validator: the same error type and message from the clause check,
    its reference, the full check and ``MorphismMap``."""
    src, dst = catalog.q6(1, 3), catalog.q6(0, 3)
    expected = _raised(reference_q6_criteria, src, dst, bad)
    assert expected is not None and expected[0] is IndexOutOfRange
    assert _raised(check_q6_criteria, src, dst, bad) == expected
    assert _raised(check_pm_morphism, src, dst, bad) == expected
    assert _raised(MorphismMap, src, dst, bad) == expected


# -- twins -----------------------------------------------------------------------


def twin_swap(space, t, u):
    """The swap ``(t u)(zeta t, zeta u)`` as a list, or None when it does not
    send ``t`` to ``u`` (a fixed point and a moved one)."""
    zt, zu = space.zeta[t], space.zeta[u]
    perm = list(range(space.n))
    for a, b in ((t, u), (u, t), (zt, zu), (zu, zt)):
        perm[a] = b
    return perm if perm[t] == u and sorted(perm) == list(range(space.n)) else None


def brute_twins(space):
    """Every pair ``t < u`` whose swap passes the map check, both ways."""
    pairs = set()
    for t, u in itertools.combinations(range(space.n), 2):
        perm = twin_swap(space, t, u)
        if perm is None or not check_pm_morphism(space, space, perm).ok:
            continue
        inverse = [perm.index(y) for y in range(space.n)]
        if check_pm_morphism(space, space, inverse).ok:
            pairs.add((t, u))
    return pairs


def classes_of(pairs, n):
    """The classes of the relation ``pairs`` on ``range(n)``, after checking
    that it is an equivalence; singletons left out."""
    related = {t: {t} for t in range(n)}
    for t, u in pairs:
        related[t].add(u)
        related[u].add(t)
    for t, block in related.items():
        assert all(related[u] == block for u in block), t
    return {frozenset(block) for block in related.values() if len(block) > 1}


def twin_classes(space):
    """The classes the search tables give, each named by its least point."""
    twin = _search_tables(space).twin
    classes = {}
    for t in range(space.n):
        assert twin[t] <= t and twin[twin[t]] == twin[t]
        classes.setdefault(twin[t], set()).add(t)
    return {frozenset(block) for block in classes.values() if len(block) > 1}


def twin_test_spaces(catalog_spaces, random_pm_space):
    rng = random.Random(17)
    spaces = [space for _, space in catalog_spaces]
    spaces += [random_pm_space(rng) for _ in range(60)]
    spaces += [catalog.disjoint_union(catalog.q(i), catalog.q(i)) for i in range(6)]
    spaces += [relabel(s, rng.sample(range(s.n), s.n)) for s in spaces[:20]]
    return spaces


def test_twins_match_a_scan_of_all_swaps(catalog_spaces, random_pm_space):
    seen = 0
    for space in twin_test_spaces(catalog_spaces, random_pm_space):
        classes = twin_classes(space)
        assert classes == classes_of(brute_twins(space), space.n), space
        for block in classes:
            for t, u in itertools.combinations(sorted(block), 2):
                perm = twin_swap(space, t, u)
                assert check_pm_morphism(space, space, perm).ok
                inverse = [perm.index(y) for y in range(space.n)]
                assert check_pm_morphism(space, space, inverse).ok
            seen += 1
    assert seen > 100


def test_twin_classes_of_fixed_points_and_partners():
    # two fixed points side by side; a swapped pair of incomparable points
    assert twin_classes(catalog.disjoint_union(catalog.q(0), catalog.q(0))) == {
        frozenset({0, 1})
    }
    assert twin_classes(catalog.q(1)) == {frozenset({0, 1})}
    assert twin_classes(catalog.q(2)) == set()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crown_twins_pair_i_with_i_plus_n(n):
    space = catalog.crown_pair(n)
    expected = {frozenset({i, i + n}) for i in [*range(n), *range(2 * n, 3 * n)]}
    assert twin_classes(space) == expected


@pytest.mark.parametrize("m, n", [(m, n) for n in (3, 4, 5) for m in range(n + 1)])
def test_q6_twins_are_the_exceptions_and_the_rest(m, n):
    """On each level the exceptions form one class and the other points
    another."""
    space = catalog.q6(m, n)
    blocks = [range(m), range(m, n), range(n, n + m), range(n + m, 2 * n)]
    expected = {frozenset(block) for block in blocks if len(block) > 1}
    assert twin_classes(space) == expected
