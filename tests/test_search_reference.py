"""The surjective search and the isomorphism test against the search as it
was before its candidate filters and twin pruning.

``ReferenceSearch`` is that search, kept here as the oracle: no static
filters, no twins, coverage kept as a count per target.  Pruning may only
drop branches that hold no first witness, so both searches must give the
same verdict, the same witness, and the pruned one no more nodes.  The
reference isomorphism test keeps its own copy of the old point signature,
coarser than the key the library matches points by; the two must agree on
every verdict.
"""

import itertools
import random

import pytest

from pmkit import Poset, Space, catalog, check_pm_morphism, is_pm_isomorphic, search_surjective
from pmkit.acceptance import catalog_spaces
from pmkit.errors import SearchBudgetExceeded
from pmkit.morphism import DEFAULT_BUDGET
from pmkit.order import iter_bits


class ReferenceSearch:
    """Backtracking over the candidates allowed by the extrema alone, in the
    order of the pruned search: minimals first, targets increasing."""

    def __init__(self, src, dst, budget):
        self.src = src
        self.dst = dst
        self.budget = budget
        self.nodes = 0
        sp, dp = src.poset, dst.poset
        src_min, src_max = sp.minimals_mask(), sp.maximals_mask()
        dst_min, dst_max = dp.minimals_mask(), dp.maximals_mask()
        self.cand = []
        for x in range(src.n):
            c = dp.all_mask
            if (src_min >> x) & 1:
                c &= dst_min
            if (src_max >> x) & 1:
                c &= dst_max
            self.cand.append(c)
        minimals = sorted(iter_bits(src_min))
        rest = sorted(set(range(src.n)) - set(minimals))
        self.order = minimals + rest
        self.mapping = [-1] * src.n
        self.assigned = []
        self.covered = [0] * dst.n
        self.covered_count = 0
        self.witness = None

    def _consistent(self, x, t):
        sp, dp = self.src.poset, self.dst.poset
        for u in self.assigned:
            fu = self.mapping[u]
            if sp.leq(u, x) and not dp.leq(fu, t):
                return False
            if sp.leq(x, u) and not dp.leq(t, fu):
                return False
        return True

    def _place(self, x, t):
        self.mapping[x] = t
        self.assigned.append(x)
        self.covered[t] += 1
        if self.covered[t] == 1:
            self.covered_count += 1

    def _remove(self, x):
        t = self.mapping[x]
        self.covered[t] -= 1
        if self.covered[t] == 0:
            self.covered_count -= 1
        self.assigned.pop()
        self.mapping[x] = -1

    def _leaf_ok(self):
        if self.covered_count != self.dst.n:
            return False
        return check_pm_morphism(self.src, self.dst, tuple(self.mapping)).ok

    def run(self):
        return self._extend(0)

    def _extend(self, pos):
        n = self.src.n
        while pos < n and self.mapping[self.order[pos]] >= 0:
            pos += 1
        if pos == n:
            if self._leaf_ok():
                self.witness = tuple(self.mapping)
                return True
            return False
        x = self.order[pos]
        zx = self.src.zeta[x]
        for t in iter_bits(self.cand[x]):
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(f"search exceeded {self.budget} assignment attempts")
            tz = self.dst.zeta[t]
            if zx == x and tz != t:
                continue
            if not self._consistent(x, t):
                continue
            self._place(x, t)
            forced = False
            if zx != x:
                if not (self.cand[zx] >> tz) & 1 or not self._consistent(zx, tz):
                    self._remove(x)
                    continue
                self._place(zx, tz)
                forced = True
            remaining = self.src.n - len(self.assigned)
            if self.dst.n - self.covered_count <= remaining and self._extend(pos + 1):
                return True
            if forced:
                self._remove(zx)
            self._remove(x)
        return False


def reference_search(src, dst, budget=DEFAULT_BUDGET):
    """``(found, witness mapping or None, nodes)`` of the reference search."""
    if dst.n > src.n or dst.n == 0:
        found = dst.n == src.n == 0
        return found, () if found else None, 0
    search = ReferenceSearch(src, dst, budget)
    found = search.run()
    return found, search.witness if found else None, search.nodes


def reference_signature(space, x):
    """Down size, up size, fixed, and comparable with the partner."""
    p = space.poset
    return (
        p.down_mask(x).bit_count(),
        p.up_mask(x).bit_count(),
        space.zeta[x] == x,
        bool((p.up_mask(x) | p.down_mask(x)) >> space.zeta[x] & 1),
    )


def reference_is_pm_isomorphic(a, b, budget=DEFAULT_BUDGET):
    """The isomorphism test run on the reference search."""
    if a.n != b.n:
        return False
    if a.n == 0:
        return True
    sig_a = [reference_signature(a, x) for x in range(a.n)]
    sig_b = [reference_signature(b, t) for t in range(b.n)]
    if sorted(sig_a) != sorted(sig_b) or a.poset.height() != b.poset.height():
        return False
    search = ReferenceSearch(a, b, budget)
    with_sig = {}
    for t, sig in enumerate(sig_b):
        with_sig[sig] = with_sig.get(sig, 0) | 1 << t
    for x in range(a.n):
        search.cand[x] &= with_sig[sig_a[x]]
    return search.run()


def assert_same_search(src, dst, label):
    report = search_surjective(src, dst)
    found, witness, nodes = reference_search(src, dst)
    assert report.found == found, label
    assert (report.witness.mapping if report.witness else None) == witness, label
    assert report.nodes_explored <= nodes, label


def q6_spaces(sizes):
    return {(m, n): catalog.q6(m, n) for n in sizes for m in range(n + 1)}


def test_search_matches_reference_on_q6_up_to_five():
    spaces = q6_spaces((3, 4, 5))
    for (src_key, src), (dst_key, dst) in itertools.product(spaces.items(), repeat=2):
        assert_same_search(src, dst, (src_key, dst_key))


def test_search_matches_reference_on_a_q6_sample_at_six():
    rng = random.Random(6)
    sources = q6_spaces((6,))
    targets = q6_spaces((3, 4, 5, 6))
    for src_key in sources:
        for dst_key in rng.sample(sorted(targets), 4):
            assert_same_search(sources[src_key], targets[dst_key], (src_key, dst_key))


@pytest.mark.parametrize("m, n", list(itertools.product((2, 3, 4), repeat=2)))
def test_search_matches_reference_on_crowns(m, n):
    assert_same_search(catalog.crown_pair(m), catalog.crown_pair(n), (m, n))


def small_spaces():
    """The catalog spaces of at most 8 points and the disjoint unions of
    pairs of them with at most 8 points in all."""
    small = [(name, s) for name, s in catalog_spaces() if s.n <= 8]
    unions = [
        (f"{a}+{b}", catalog.disjoint_union(x, y))
        for (a, x), (b, y) in itertools.combinations_with_replacement(small, 2)
        if x.n + y.n <= 8
    ]
    return small + unions


def test_search_and_iso_match_reference_on_random_pairs(relabel):
    rng = random.Random(2024)
    spaces = small_spaces()
    assert "chain3" in dict(spaces) and "q0+chain3" in dict(spaces)
    pairs = [tuple(rng.sample(spaces, 2)) for _ in range(150)]
    # the chain against every space small enough to be its image
    pairs += [(("chain3", catalog.nonregular_chain3()), s) for s in spaces if s[1].n <= 3]
    for (a_name, a), (b_name, b) in pairs:
        src, dst = (a, b) if a.n >= b.n else (b, a)
        assert_same_search(src, dst, (a_name, b_name))
    same_size = [(a, b) for (_, a), (_, b) in itertools.combinations(spaces, 2) if a.n == b.n]
    for a, b in rng.sample(same_size, 150):
        perm = rng.sample(range(b.n), b.n)
        for other in (b, relabel(b, perm), relabel(a, perm)):
            assert is_pm_isomorphic(a, other) == reference_is_pm_isomorphic(a, other), (a, other)


def test_iso_matches_reference_on_relabelled_q6_and_crowns(relabel):
    rng = random.Random(5)
    spaces = list(q6_spaces((3, 4, 5)).values()) + [catalog.crown_pair(n) for n in (2, 3)]
    for a in spaces:
        for b in spaces:
            if a.n != b.n:
                continue
            b = relabel(b, rng.sample(range(b.n), b.n))
            assert is_pm_isomorphic(a, b) == reference_is_pm_isomorphic(a, b), (a, b)


def test_search_and_iso_match_reference_on_random_pm_spaces(random_pm_space, relabel):
    """Random orders with fixed points and height >= 2, which the catalog
    pairs above barely reach."""
    rng = random.Random(17)
    spaces = [random_pm_space(rng) for _ in range(100)]
    assert any(s.poset.height() >= 2 for s in spaces)
    assert any(s.zeta[x] == x for s in spaces for x in range(s.n))
    for i in range(0, len(spaces), 2):
        a, b = spaces[i], spaces[i + 1]
        src, dst = (a, b) if a.n >= b.n else (b, a)
        assert_same_search(src, dst, i)
        assert_same_search(src, relabel(src, rng.sample(range(src.n), src.n)), i)
    for a in spaces[:50]:
        for b in (a, rng.choice(spaces)):
            other = relabel(b, rng.sample(range(b.n), b.n))
            assert is_pm_isomorphic(a, other) == reference_is_pm_isomorphic(a, other), (a, other)


def test_iso_and_search_interleaved_give_the_same_reports(random_pm_space):
    """Both entry points read the tables cached per space; asking them in
    turn on the same space objects must repeat every answer exactly."""
    rng = random.Random(23)
    spaces = [random_pm_space(rng) for _ in range(12)] + [catalog.crown_pair(3), catalog.q6(2, 4)]
    pairs = [(a, b) for a, b in itertools.product(spaces, repeat=2) if a.n >= b.n]
    first = [search_surjective(a, b) for a, b in pairs]
    iso = [is_pm_isomorphic(a, b) for a, b in pairs]
    for (a, b), report, same in zip(pairs, first, iso):
        assert is_pm_isomorphic(a, b) == same
        assert search_surjective(a, b) == report
        assert is_pm_isomorphic(b, a) == same
        assert search_surjective(a, b) == report


def assert_zero_node_verdicts_are_negative(spaces):
    """Every question the search decides without an attempt, at the root or
    by size, is negative under the reference search; returns how many."""
    decided = 0
    for (a_name, a), (b_name, b) in itertools.product(spaces, repeat=2):
        report = search_surjective(a, b)
        if report.nodes_explored == 0 and not report.found:
            assert reference_search(a, b)[0] is False, (a_name, b_name)
            decided += 1
    return decided


def test_questions_decided_at_the_root_are_negative_on_catalog_pairs():
    spaces = catalog_spaces() + [("empty", Space(Poset.antichain(0), ()))]
    assert assert_zero_node_verdicts_are_negative(spaces) > len(spaces)


def test_questions_decided_at_the_root_are_negative_on_random_pm_spaces(random_pm_space):
    rng = random.Random(29)
    spaces = [(i, random_pm_space(rng)) for i in range(60)]
    spaces.append(("empty", Space(Poset.antichain(0), ())))
    assert any(s.zeta[x] == x for _, s in spaces for x in range(s.n))
    assert assert_zero_node_verdicts_are_negative(spaces) > len(spaces)
