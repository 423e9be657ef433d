"""The built-in verification suite.

Fourteen exact checks pin the library's behaviour to the structure theory
it implements: the closed-form membership predicate against brute-force
search, the distance form of the range iterates, range against width,
simplicity against the congruence count, the two reference subvariety
lattices, diagonal rigidity, crown non-embeddability, one-generator growth,
the local-finiteness ceilings, closure of the constructed subalgebra
families, the duality round trip, the regularity quadruple, and the
four-clause surjectivity criteria.

Each criterion returns ``(ok, detail)``; the CLI command ``verify-paper``
prints one line per criterion (with ``--json``, one object per criterion
with its time in seconds), and the test suite runs them one test each.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

from . import catalog
from .algebra import dual_algebra
from .morphism import (
    DEFAULT_BUDGET,
    check_pm_morphism,
    check_q6_criteria,
    is_pm_isomorphic,
    search_surjective,
)
from .order import Poset
from .space import Space
from .subalgebra import generate_subalgebra, is_closed_family, local_finiteness_bound
from .variety import SimpleRef, l6_member, l6_member_oracle, subvariety_lattice


def catalog_spaces() -> list[tuple[str, Space]]:
    """The named spaces every sweep runs over, each of at most 12 elements."""
    out: list[tuple[str, Space]] = [(f"q{i}", catalog.q(i)) for i in range(6)]
    for n in range(3, 7):
        for m in range(n + 1):
            out.append((f"q6:{m},{n}", catalog.q6(m, n)))
    out.append(("grid:5", catalog.range2_grid(5)))
    out.append(("grid:6", catalog.range2_grid(6)))
    out.append(("crown:2", catalog.crown_pair(2)))
    out.append(("crown:3", catalog.crown_pair(3)))
    out.append(("chain3", catalog.nonregular_chain3()))
    return out


def regular_catalog_spaces() -> list[tuple[str, Space]]:
    return [(n, s) for n, s in catalog_spaces() if s.is_regular()]


def criterion_membership_formula(budget: int = DEFAULT_BUDGET):
    """Closed-form membership equals morphism search on the full small sweep."""
    checked = 0
    for n in range(3, 7):
        for m in range(n + 1):
            for q in range(3, 7):
                for p in range(q + 1):
                    if l6_member(p, q, m, n) != l6_member_oracle(p, q, m, n, budget):
                        return False, f"disagree at (p,q,m,n)=({p},{q},{m},{n})"
                    checked += 1
    return True, f"{checked} parameter tuples"


def criterion_distance_formula(budget: int = DEFAULT_BUDGET):
    """Iterated prime-star equals its distance form, all downsets, k <= 4."""
    checked = 0
    for name, space in regular_catalog_spaces():
        algebra = dual_algebra(space)
        for xs in algebra.elements:
            for k in range(5):
                if algebra.range_iterate(xs, k) != algebra.range_term_via_distance(xs, k):
                    return False, f"{name}, X={sorted(xs)}, k={k}"
                checked += 1
    return True, f"{checked} (space, element, k) triples"


def criterion_range_equals_width(budget: int = DEFAULT_BUDGET):
    """The algebra's range equals the space's zeta-width on regular spaces."""
    spaces = regular_catalog_spaces()
    for name, space in spaces:
        algebra = dual_algebra(space)
        if algebra.range_of() != space.zeta_width():
            return False, f"{name}: range {algebra.range_of()} != width {space.zeta_width()}"
    return True, f"{len(spaces)} spaces"


def criterion_simplicity(budget: int = DEFAULT_BUDGET):
    """Exactly two congruence sets iff the space passes the simplicity test."""
    spaces = regular_catalog_spaces()
    for name, space in spaces:
        if (len(space.congruence_sets()) == 2) != space.is_simple():
            return False, name
    return True, f"{len(spaces)} spaces"


EXPECTED_FOURTEEN = {
    frozenset(d)
    for d in (
        ["L0"], ["L1"], ["L2"], ["L3"], ["L4"], ["L5"],
        ["L1", "L2"], ["L1", "L4"], ["L1", "L5"],
        ["L3", "L4"], ["L3", "L5"], ["L4", "L5"],
        ["L1", "L4", "L5"], ["L3", "L4", "L5"],
    )
}


def criterion_fourteen_subvarieties(budget: int = DEFAULT_BUDGET):
    """The six small simples generate exactly fourteen non-trivial
    subvarieties with the expected join decompositions."""
    lattice = subvariety_lattice([SimpleRef.builtin(i) for i in range(6)], budget)
    if lattice.nontrivial_count != 14:
        return False, f"count {lattice.nontrivial_count} != 14"
    if lattice.decompositions() != EXPECTED_FOURTEEN:
        extra = lattice.decompositions() - EXPECTED_FOURTEEN
        missing = EXPECTED_FOURTEEN - lattice.decompositions()
        return False, f"extra={extra} missing={missing}"
    return True, "14 subvarieties, decompositions match"


def criterion_chain_prefix(budget: int = DEFAULT_BUDGET):
    """The Kleene generators produce a six-step chain in the stated order."""
    gens = [
        SimpleRef.builtin(0),
        SimpleRef.builtin(2),
        SimpleRef.builtin(5),
        SimpleRef.l6(0, 3),
        SimpleRef.l6(0, 4),
        SimpleRef.l6(0, 5),
    ]
    lattice = subvariety_lattice(gens, budget)
    if lattice.nontrivial_count != 6 or not lattice.is_chain():
        return False, f"count {lattice.nontrivial_count}, chain {lattice.is_chain()}"
    labels = [lattice.node_label(d) for d in lattice.downsets]
    expected = ["T", "L0", "L2", "L5", "L6(0,3)", "L6(0,4)", "L6(0,5)"]
    if labels != expected:
        return False, f"labels {labels}"
    return True, " < ".join(labels)


def criterion_diagonal_rigidity(budget: int = DEFAULT_BUDGET):
    """Diagonal members embed into each other only at equal parameters,
    by the formula and by search."""
    for n in (3, 4, 5):
        for m in (3, 4, 5):
            expected = n == m
            if l6_member(n, n, m, m) != expected:
                return False, f"formula at ({n},{m})"
            if l6_member_oracle(n, n, m, m, budget) != expected:
                return False, f"search at ({n},{m})"
    return True, "9 pairs, formula and search agree"


def criterion_crown_rigidity(budget: int = DEFAULT_BUDGET):
    """Doubled crowns only map onto crowns of the same size."""
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            found = search_surjective(
                catalog.crown_pair(m), catalog.crown_pair(n), budget
            ).found
            if found != (m == n):
                return False, f"crown {m}->{n}: found={found}"
    return True, "9 pairs"


def criterion_growth(budget: int = DEFAULT_BUDGET):
    """One generator in the width-2 grid algebra yields at least n elements."""
    from .subalgebra import one_generator_growth

    sizes = {}
    for n in (5, 6, 7, 8):
        sizes[n] = one_generator_growth(n)
        if sizes[n] < n:
            return False, f"growth({n}) = {sizes[n]} < {n}"
    return True, ", ".join(f"growth({n})={v}" for n, v in sizes.items())


def criterion_single_generator_bound(budget: int = DEFAULT_BUDGET):
    """Every one-generator closure in the small bipartite algebras stays
    within the N=1 ceiling of 48."""
    ceiling = local_finiteness_bound(1)
    worst = 0
    for n in (3, 4):
        for m in range(n + 1):
            algebra = dual_algebra(catalog.q6(m, n))
            for xs in algebra.elements:
                size = len(generate_subalgebra(algebra, [xs]))
                worst = max(worst, size)
                if size > ceiling:
                    return False, f"q6({m},{n}) generator {sorted(xs)}: {size} > {ceiling}"
    return True, f"max closure {worst} <= {ceiling}"


def criterion_kf_closure(budget: int = DEFAULT_BUDGET):
    """The constructed subalgebra families really are closed under all four
    operations, for both family shapes."""
    full4 = [
        frozenset(c) for k in range(5) for c in itertools.combinations(range(4), k)
    ]
    discrete = dual_algebra(Space(Poset.antichain(4), range(4)))
    generated = generate_subalgebra(discrete, [frozenset((0,))]).generated
    q6_algebra = dual_algebra(catalog.q6(2, 4))
    for tag, family in (("minimal", [frozenset(), frozenset(range(4))]),
                        ("generated", generated),
                        ("full", full4)):
        members = catalog.kf_subalgebra_q6(2, 4, family)
        if not is_closed_family(q6_algebra, members):
            return False, f"q6(2,4) {tag} family not closed"

    crown_algebra = dual_algebra(catalog.crown_pair(2))
    half_a = [frozenset(c) for k in range(3) for c in itertools.combinations((0, 1), k)]
    half_b = [frozenset(c) for k in range(3) for c in itertools.combinations((2, 3), k)]
    for tag, fa, fb in (
        ("minimal", [frozenset(), frozenset((0, 1))], [frozenset(), frozenset((2, 3))]),
        ("full", half_a, half_b),
    ):
        members = catalog.kf_subalgebra_crown(2, fa, fb)
        if not is_closed_family(crown_algebra, members):
            return False, f"crown(2) {tag} family not closed"
    return True, "five families closed"


def criterion_duality_round_trip(budget: int = DEFAULT_BUDGET):
    """Rebuilding the space from its downset algebra gives back the space."""
    spaces = catalog_spaces()
    for name, space in spaces:
        algebra = dual_algebra(space)
        if not is_pm_isomorphic(algebra.reconstruct_space(), space, budget):
            return False, name
    return True, f"{len(spaces)} spaces"


def criterion_regularity_quadruple(budget: int = DEFAULT_BUDGET):
    """The defining inequality, both congruence-triviality tests and the
    height bound agree on every catalog space."""
    spaces = catalog_spaces()
    for name, space in spaces:
        algebra = dual_algebra(space)
        flags = {
            algebra.is_regular(),
            algebra.moisil_trivial(),
            algebra.determination_trivial(),
            space.poset.height() <= 1,
        }
        if len(flags) != 1:
            return False, name
    return True, f"{len(spaces)} spaces (non-regular control included)"


def criterion_q6_criteria_equivalence(budget: int = DEFAULT_BUDGET):
    """The four-clause criteria equal (morphism and surjective) for every
    equivariant total map between small bipartite spaces."""
    # The catalog keeps one object per space, so the q6 shape the criteria
    # read is worked out once per space and kept on it, across calls.
    spaces = [(m, n, catalog.q6(m, n)) for n in (3, 4) for m in range(n + 1)]
    checked = 0
    for m, n, src in spaces:
        for p, q, dst in spaces:
            size = dst.n
            # q6(m, n) has the minimals 0..n-1, and zeta swaps i and n + i;
            # both products run in the same order, so they pair up.
            halves = zip(
                itertools.product(range(size), repeat=n),
                itertools.product(dst.zeta, repeat=n),
            )
            for choice, partners in halves:
                phi = choice + partners
                verdict = check_q6_criteria(src, dst, phi).ok
                # Surjectivity first: most maps miss a point, and the
                # conjunction has the same value in either order.
                full = len(set(phi)) == size and check_pm_morphism(src, dst, phi).ok
                if verdict != full:
                    return False, f"(m,n)=({m},{n}) (p,q)=({p},{q}) phi={list(phi)}"
                checked += 1
    return True, f"{checked} equivariant maps"


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    seconds: float


CRITERIA: list[tuple[str, Callable]] = [
    ("membership formula vs search sweep", criterion_membership_formula),
    ("distance form of the range iterates", criterion_distance_formula),
    ("range equals width", criterion_range_equals_width),
    ("simplicity iff two congruences", criterion_simplicity),
    ("fourteen subvarieties of the small simples", criterion_fourteen_subvarieties),
    ("Kleene chain prefix", criterion_chain_prefix),
    ("diagonal rigidity", criterion_diagonal_rigidity),
    ("crown rigidity", criterion_crown_rigidity),
    ("one-generator growth", criterion_growth),
    ("single-generator closure ceiling", criterion_single_generator_bound),
    ("closed subalgebra families", criterion_kf_closure),
    ("duality round trip", criterion_duality_round_trip),
    ("regularity quadruple agreement", criterion_regularity_quadruple),
    ("four-clause surjectivity criteria", criterion_q6_criteria_equivalence),
]


def run_all(budget: int = DEFAULT_BUDGET) -> list[CriterionResult]:
    results = []
    for i, (title, func) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        ok, detail = func(budget)
        results.append(CriterionResult(i, title, ok, detail, time.perf_counter() - start))
    return results
