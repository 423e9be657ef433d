"""The verification gate: every criterion runs at its exact tolerance.

One test per criterion; each prints its PASS/FAIL line, so a verbose run
reads as a report, and compares it with the expected ``verify-paper`` line,
detail included.  All comparisons are exact (booleans, counts, set
equalities).
"""

import pytest

from pmkit import acceptance
from support import ROOT

EXPECTED_LINES = [
    "criterion  1 PASS membership formula vs search sweep (484 parameter tuples)",
    "criterion  2 PASS distance form of the range iterates (9785 (space, element, k) triples)",
    "criterion  3 PASS range equals width (32 spaces)",
    "criterion  4 PASS simplicity iff two congruences (32 spaces)",
    "criterion  5 PASS fourteen subvarieties of the small simples (14 subvarieties, decompositions match)",
    "criterion  6 PASS Kleene chain prefix (T < L0 < L2 < L5 < L6(0,3) < L6(0,4) < L6(0,5))",
    "criterion  7 PASS diagonal rigidity (9 pairs, formula and search agree)",
    "criterion  8 PASS crown rigidity (9 pairs)",
    "criterion  9 PASS one-generator growth (growth(5)=77, growth(6)=145, growth(7)=277, growth(8)=537)",
    "criterion 10 PASS single-generator closure ceiling (max closure 8 <= 48)",
    "criterion 11 PASS closed subalgebra families (five families closed)",
    "criterion 12 PASS duality round trip (33 spaces)",
    "criterion 13 PASS regularity quadruple agreement (33 spaces (non-regular control included))",
    "criterion 14 PASS four-clause surjectivity criteria (142016 equivariant maps)",
]


@pytest.mark.parametrize(
    "number,title,func",
    [(i, t, f) for i, (t, f) in enumerate(acceptance.CRITERIA, start=1)],
    ids=[f"{i:02d}-{t.replace(' ', '-')}" for i, (t, _) in enumerate(acceptance.CRITERIA, start=1)],
)
def test_criterion(number, title, func):
    ok, detail = func()
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'} {title} ({detail})"
    print(line)
    assert ok, f"criterion {number} ({title}): {detail}"
    assert line == EXPECTED_LINES[number - 1]


def test_expected_lines_match_the_benchmark_copy():
    """The benchmark's gate workload checks ``verify-paper`` against its own
    copy of these lines; the two copies must not drift apart."""
    gate_expected = ROOT / "perfbench" / "gate_expected.txt"
    lines = EXPECTED_LINES + ["summary: 14/14 passed"]
    assert gate_expected.read_text() == "\n".join(lines) + "\n"


def test_criterion_14_checks_every_map(monkeypatch):
    """Criterion 14 evaluates the clauses on every one of its maps and the
    full check on every surjective one, so no speed-up can skip a map."""
    calls = {"criteria": 0, "full": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    monkeypatch.setattr(
        acceptance, "check_q6_criteria", counted("criteria", acceptance.check_q6_criteria)
    )
    monkeypatch.setattr(
        acceptance, "check_pm_morphism", counted("full", acceptance.check_pm_morphism)
    )
    assert acceptance.criterion_q6_criteria_equivalence() == (True, "142016 equivariant maps")
    assert calls == {"criteria": 142016, "full": 21888}
