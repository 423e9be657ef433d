"""Membership predicate, its search oracle, and subvariety lattices."""

import functools
import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from pmkit import Poset, catalog, variety
from pmkit.errors import BadLabel, NotRegular, TransitivityBroken
from pmkit.morphism import DEFAULT_BUDGET
from pmkit.variety import (
    SimpleRef,
    is_member,
    l6_member,
    l6_member_oracle,
    subvariety_lattice,
)


# -- the closed-form predicate -------------------------------------------------


def test_member_documented_values():
    assert l6_member(3, 6, 7, 8)        # 6 <= 3 + 2 + 1
    assert not l6_member(2, 6, 7, 8)    # 6 > 2 + 2 + 1
    assert l6_member(0, 3, 0, 4)
    assert not l6_member(0, 4, 0, 3)


def test_member_degenerate_equal_pair():
    for p in (3, 4, 5):
        for m in (3, 4, 5):
            for n in range(m, 7):
                assert l6_member(p, p, m, n) == (p == m == n)


def test_member_needs_p_at_most_m():
    assert not l6_member(2, 3, 1, 5)


def test_member_bad_labels():
    with pytest.raises(BadLabel):
        l6_member(0, 2, 0, 3)
    with pytest.raises(BadLabel):
        l6_member(4, 3, 0, 5)
    with pytest.raises(BadLabel):
        l6_member_oracle(0, 3, 5, 4)


def test_member_monotone_in_n():
    """With a strict source label fixed, membership is upward closed in n
    (the equal-pair labels are rigid instead, see the diagonal tests)."""
    for p in range(4):
        for q in range(max(3, p + 1), 6):
            for m in range(p, 5):
                hits = [n for n in range(max(3, m), 9) if l6_member(p, q, m, n)]
                if hits:
                    assert hits == list(range(hits[0], 9))


def test_member_matches_oracle_small():
    for n in (3, 4):
        for m in range(n + 1):
            for q in (3, 4):
                for p in range(q + 1):
                    assert l6_member(p, q, m, n) == l6_member_oracle(p, q, m, n)


# -- membership for the small simples ----------------------------------------------


def test_builtin_membership_facts():
    l0 = SimpleRef.builtin(0)
    l4 = SimpleRef.builtin(4)
    l5 = SimpleRef.builtin(5)
    # the one-point algebra embeds into everything non-trivial
    for i in range(6):
        assert is_member(l0, [SimpleRef.builtin(i)])
    # the asymmetric crown needs an exceptional minimal
    for n in (3, 4):
        for m in range(n + 1):
            assert is_member(l4, [SimpleRef.l6(m, n)]) == (m >= 1)
    # the symmetric crown misses only the smallest all-exceptional label
    assert not is_member(l5, [SimpleRef.l6(3, 3)])
    assert is_member(l5, [SimpleRef.l6(3, 4)])
    assert is_member(l5, [SimpleRef.l6(0, 3)])


def test_custom_ref_requires_simple():
    with pytest.raises(NotRegular):
        SimpleRef.custom("union", catalog.disjoint_union(catalog.q(2), catalog.q(2)))


def test_custom_crown_membership_by_search():
    crowns = [SimpleRef.custom(f"crown{n}", catalog.crown_pair(n)) for n in (2, 3)]
    assert is_member(crowns[0], [crowns[0]])
    assert not is_member(crowns[0], [crowns[1]])
    assert not is_member(crowns[1], [crowns[0]])


# -- subvariety lattices ---------------------------------------------------------


def test_lattice_single_generator():
    lattice = subvariety_lattice([SimpleRef.builtin(0)])
    assert lattice.nontrivial_count == 1


def test_lattice_of_the_six_simples():
    lattice = subvariety_lattice([SimpleRef.builtin(i) for i in range(6)])
    assert lattice.nontrivial_count == 14
    expected = {
        frozenset(d)
        for d in (
            ["L0"], ["L1"], ["L2"], ["L3"], ["L4"], ["L5"],
            ["L1", "L2"], ["L1", "L4"], ["L1", "L5"],
            ["L3", "L4"], ["L3", "L5"], ["L4", "L5"],
            ["L1", "L4", "L5"], ["L3", "L4", "L5"],
        )
    }
    assert lattice.decompositions() == expected


def test_lattice_chain_prefix():
    gens = [
        SimpleRef.builtin(0),
        SimpleRef.builtin(2),
        SimpleRef.builtin(5),
        SimpleRef.l6(0, 3),
        SimpleRef.l6(0, 4),
        SimpleRef.l6(0, 5),
    ]
    lattice = subvariety_lattice(gens)
    assert lattice.nontrivial_count == 6
    assert lattice.is_chain()
    labels = [lattice.node_label(d) for d in sorted(lattice.downsets, key=len)]
    assert labels == ["T", "L0", "L2", "L5", "L6(0,3)", "L6(0,4)", "L6(0,5)"]


def test_lattice_merges_isomorphic_generators():
    lattice = subvariety_lattice([SimpleRef.builtin(2), SimpleRef("copy", catalog.q(2))])
    assert lattice.nontrivial_count == 1
    assert len(lattice.classes) == 1 and len(lattice.classes[0]) == 2


def test_lattice_covers_differ_by_one_class():
    lattice = subvariety_lattice([SimpleRef.builtin(i) for i in range(6)])
    for low, high in lattice.covers():
        assert low < high and len(high - low) == 1


def test_lattice_is_distributive():
    """Meets and joins computed from the lattice order satisfy the
    distributive law on every triple."""
    lattice = subvariety_lattice([SimpleRef.builtin(i) for i in range(6)])
    downsets = lattice.downsets
    assert len(downsets) <= 20

    def meet(a, b):
        candidates = [d for d in downsets if d <= a and d <= b]
        best = max(candidates, key=len)
        assert all(c <= best for c in candidates)
        return best

    def join(a, b):
        candidates = [d for d in downsets if a <= d and b <= d]
        best = min(candidates, key=len)
        assert all(best <= c for c in candidates)
        return best

    for a in downsets:
        for b in downsets:
            for c in downsets:
                assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


def test_lattice_dot_output():
    lattice = subvariety_lattice([SimpleRef.builtin(0), SimpleRef.builtin(2)])
    dot = lattice.to_dot()
    assert dot.startswith("digraph")
    assert '"T" -> "L0"' in dot
    assert '"L0" -> "L2"' in dot


def test_embeddability_is_transitive_on_catalog():
    """Composable surjections compose: the relation computed pairwise is
    transitive on the generators used here."""
    from pmkit import search_surjective

    gens = [SimpleRef.builtin(i) for i in range(6)] + [
        SimpleRef.l6(0, 3),
        SimpleRef.l6(1, 3),
        SimpleRef.l6(3, 3),
    ]
    k = len(gens)
    rel = [
        [search_surjective(gens[j].space, gens[i].space).found for j in range(k)]
        for i in range(k)
    ]
    for i in range(k):
        assert rel[i][i]
        for j in range(k):
            for l in range(k):
                if rel[i][j] and rel[j][l]:
                    assert rel[i][l], (i, j, l)


# -- the frozenset reference ------------------------------------------------------
#
# The lattice as it reads through generating pairs closed by ``Poset.from_pairs``,
# ``Poset.leq`` scans and a pool of frozenset downsets; the library works on
# the class up rows and masks.  The reference searches through
# ``variety.search_surjective``, so one patch feeds both.


@dataclass(frozen=True)
class RefLattice:
    generators: tuple
    classes: tuple
    order: Poset
    downsets: tuple

    def decomposition(self, downset):
        maximal = {
            c
            for c in downset
            if not any(d != c and self.order.leq(c, d) for d in downset)
        }
        return frozenset(self.classes[c][0] for c in maximal)

    def node_label(self, downset):
        if not downset:
            return "T"
        return "+".join(sorted(self.decomposition(downset)))

    def covers(self):
        out = []
        pool = set(self.downsets)
        for d in self.downsets:
            for extra in range(len(self.classes)):
                if extra in d:
                    continue
                bigger = d | {extra}
                if bigger in pool:
                    out.append((d, frozenset(bigger)))
        return out

    def is_chain(self):
        return all(a <= b for a, b in zip(self.downsets, self.downsets[1:]))

    def to_dot(self):
        lines = ["digraph subvarieties {", "  rankdir=BT;"]
        for d in self.downsets:
            lines.append(f'  "{self.node_label(d)}";')
        for low, high in self.covers():
            lines.append(f'  "{self.node_label(low)}" -> "{self.node_label(high)}";')
        lines.append("}")
        return "\n".join(lines)


def ref_subvariety_lattice(generators, budget=DEFAULT_BUDGET):
    gens = tuple(generators)
    k = len(gens)
    embeds = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                embeds[i][j] = True
            else:
                embeds[i][j] = variety.search_surjective(
                    gens[j].space, gens[i].space, budget
                ).found
    classes = []
    class_of = [-1] * k
    for i in range(k):
        if class_of[i] >= 0:
            continue
        block = [j for j in range(k) if embeds[i][j] and embeds[j][i]]
        for j in block:
            class_of[j] = len(classes)
        classes.append(tuple(gens[j].label for j in block))
    pairs = {(class_of[i], class_of[j]) for i in range(k) for j in range(k) if embeds[i][j]}
    order = Poset.from_pairs(len(classes), pairs)
    return RefLattice(gens, tuple(classes), order, tuple(order.downsets()))


def test_lattice_matches_frozenset_reference(monkeypatch):
    """Classes, order rows, downsets, decompositions, covers, the chain test
    and the DOT text agree with the reference on seeded generator subsets."""
    monkeypatch.setattr(
        variety, "search_surjective", functools.lru_cache(None)(variety.search_surjective)
    )
    pool = [SimpleRef.builtin(i) for i in range(6)]
    pool += [SimpleRef.l6(m, n) for n in (3, 4, 5) for m in range(n + 1)]
    pool += [SimpleRef.custom(f"crown{n}", catalog.crown_pair(n)) for n in (2, 3)]
    rng = random.Random(1313)
    subsets = [rng.sample(pool, rng.randint(1, 6)) for _ in range(40)]
    merged = chains = 0
    for gens in subsets:
        if rng.random() < 0.3:
            # a second name for one space shares its class
            gens.insert(rng.randint(0, len(gens)), SimpleRef("copy", rng.choice(gens).space))
        got, want = subvariety_lattice(gens), ref_subvariety_lattice(gens)
        assert got.classes == want.classes
        assert got.order == want.order
        assert got.downsets == want.downsets
        for d in got.downsets:
            assert got.decomposition(d) == want.decomposition(d)
        assert got.covers() == want.covers()
        assert got.is_chain() == want.is_chain()
        assert got.to_dot() == want.to_dot()
        merged += any(len(c) > 1 for c in got.classes)
        chains += got.is_chain()
    assert merged >= 3 and 5 <= chains < len(subsets)


def test_lattice_rejects_a_non_transitive_search(monkeypatch):
    """L0 below L1 below L2 but not L0 below L2: the reference closes the
    relation into a chain, the lattice raises instead."""
    gens = [SimpleRef.builtin(i) for i in range(3)]
    index = {g.space: i for i, g in enumerate(gens)}

    def search(source, target, budget):
        return SimpleNamespace(found=(index[target], index[source]) in {(0, 1), (1, 2)})

    monkeypatch.setattr(variety, "search_surjective", search)
    assert ref_subvariety_lattice(gens).is_chain()
    with pytest.raises(TransitivityBroken):
        subvariety_lattice(gens)


# -- diagonal rigidity ----------------------------------------------------------


def test_distinct_varieties_documented_cases():
    """Distinct diagonal labels generate distinct varieties: neither member
    lies in the variety of the other."""
    labels = (3, 4, 5)
    assert all(l6_member(n, n, m, m) == (n == m) for n in labels for m in labels)
    assert all(l6_member_oracle(n, n, m, m) == (n == m) for n in (3, 4) for m in (3, 4))


def test_diagonal_sweep_matches_formula():
    for n in (3, 4, 5):
        for m in (3, 4, 5):
            assert l6_member(n, n, m, m) == (n == m)
