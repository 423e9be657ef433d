"""The benchmark's four workloads, each built from a seed.

Every workload turns the seed into a :class:`Batch`: a fixed list of
questions for pmkit and a check of the answers against ``oracle.py`` (or,
for ``gate``, against the committed ``verify-paper`` output).  Building the
batch is the workload's set-up and is timed as ``setup_s``.

The seed never changes how much work a batch asks for, only which
equivalent inputs carry it, so run-to-run spread measures the program and
not the draw:

* the search workloads ask a fixed set of questions in seeded order.
  ``search-miss`` relabels each target space by a seeded permutation: that
  leaves the explored tree of a negative search isomorphic, so node counts
  repeat exactly across seeds.  ``search-hit`` keeps the catalog labels,
  because relabelling moves the first witness in the search order (per-pass
  time differed by 60% between seeds when tried);
* ``closure`` relabels each grid space by a seeded permutation and draws
  a fixed number of generator sets from every stratum (generator count,
  closure size) of the committed pool;
* ``gate`` runs the fourteen criteria in seeded order.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

#: Node budget of every search; crown 5 -> 4 needs 560,456 nodes.
NODE_BUDGET = 2_000_000
#: Generator sets drawn from each stratum of the closure pool.
CLOSURE_DRAWS = 4
CLOSURE_GRIDS = (7, 8, 9, 10)
#: Closures of a whole algebra are drawn only up to this grid size; above
#: it the ``{x0}`` anchor is the only full closure (grid:10 takes seconds).
FULL_CLOSURE_MAX_GRID = 8

HERE = Path(__file__).resolve().parent
GATE_EXPECTED = HERE / "gate_expected.txt"
CLOSURE_POOL = HERE / "closure_pool.json"


class Failed:
    """Stands in for the answer of a question that raised ``PmkitError``."""

    def __init__(self, error: Exception):
        self.error = error


def no_notes(answers: list) -> list[str]:
    return []


@dataclass
class Batch:
    """Questions (label, call), a check returning the faults found, the
    seed's choices (``key``) and notes on anchor answers for the report."""

    ops: list[tuple[str, Callable[[], object]]]
    check: Callable[[list], list[str]]
    key: tuple
    notes: Callable[[list], list[str]] = no_notes


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(space, perm: list[int]):
    """The copy of ``space`` in which point ``i`` is called ``perm[i]``."""
    from pmkit import Poset, Space

    n = space.n
    up = [0] * n
    for i in range(n):
        row = space.poset.up_mask(i)
        up[perm[i]] = sum(1 << perm[j] for j in range(n) if row >> j & 1)
    zeta = [0] * n
    for i in range(n):
        zeta[perm[i]] = perm[space.zeta[i]]
    return Space(Poset(up), zeta)


def inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


# -- gate ------------------------------------------------------------------


def gate(seed: int) -> Batch:
    """The fourteen acceptance criteria, one question each.

    Set-up also builds the catalog spaces and algebras the sweeps range
    over, so construction cost shows in ``setup_s``; the criteria build
    their own copies.
    """
    from pmkit import acceptance, dual_algebra

    for _, space in acceptance.catalog_spaces():
        dual_algebra(space)
    expected = GATE_EXPECTED.read_text().splitlines(keepends=True)
    criteria = acceptance.CRITERIA
    order = permutation(random.Random(f"gate:{seed}"), len(criteria))
    ops = [
        (f"c{i + 1:02d}", functools.partial(criteria[i][1], NODE_BUDGET))
        for i in order
    ]

    def check(outputs: list) -> list[str]:
        lines: list[str | None] = [None] * len(criteria)
        for i, out in zip(order, outputs):
            if not isinstance(out, Failed):
                ok, detail = out
                status = "PASS" if ok else "FAIL"
                lines[i] = f"criterion {i + 1:2d} {status} {criteria[i][0]} ({detail})\n"
        faults = [
            f"criterion {i + 1}: {line!r} != {expected[i]!r}"
            for i, line in enumerate(lines)
            if line is not None and line != expected[i]
        ]
        if None not in lines:
            passed = sum(" PASS " in line for line in lines)
            lines.append(f"summary: {passed}/{len(criteria)} passed\n")
            if "".join(lines) != "".join(expected):
                faults.append("verify-paper output differs from gate_expected.txt")
        return faults

    return Batch(ops, check, tuple(order))


# -- morphism search -------------------------------------------------------


def _search_batch(
    name: str, seed: int, questions: list, expect_found: bool, relabel_targets: bool
) -> Batch:
    """Ask ``search_surjective`` each question, in seeded order.

    A question is ``(kind, src_params, dst_params)`` with kind ``q6`` or
    ``crown``.  Sources keep the catalog labels; targets are relabelled by
    a seeded permutation when ``relabel_targets`` is set.
    """
    from pmkit import catalog, check_pm_morphism, search_surjective

    build = {"q6": catalog.q6, "crown": catalog.crown_pair}
    relation = {"q6": oracle.q6, "crown": oracle.crown}
    rng = random.Random(f"{name}:{seed}")
    rng.shuffle(questions)
    sources: dict = {}
    asked = []
    for kind, src_params, dst_params in questions:
        if (kind, src_params) not in sources:
            sources[kind, src_params] = build[kind](*src_params)
        src = sources[kind, src_params]
        dst = build[kind](*dst_params)
        perm = list(range(dst.n))
        if relabel_targets:
            perm = permutation(rng, dst.n)
            dst = relabel(dst, perm)
        asked.append((kind, src_params, dst_params, src, dst, perm))
    ops = [
        (
            f"{kind}{src_params}->{kind}{dst_params}",
            functools.partial(search_surjective, src, dst, NODE_BUDGET),
        )
        for kind, src_params, dst_params, src, dst, _ in asked
    ]

    def check(outputs: list) -> list[str]:
        faults = []
        for (label, _), question, report in zip(ops, asked, outputs):
            if isinstance(report, Failed):
                continue
            kind, src_params, dst_params, src, dst, perm = question
            if report.found != expect_found:
                faults.append(f"{label}: found={report.found}, expected {expect_found}")
            elif expect_found:
                phi = report.witness.mapping if report.witness else None
                if phi is None:
                    faults.append(f"{label}: no witness")
                    continue
                back = inverse(perm)
                fault = oracle.structure_map_fault(
                    relation[kind](*src_params),
                    relation[kind](*dst_params),
                    [back[t] for t in phi],
                )
                if fault or not check_pm_morphism(src, dst, phi).ok:
                    faults.append(f"{label}: bad witness {phi}: {fault or 'check failed'}")
            elif report.witness is not None:
                faults.append(f"{label}: witness on a negative verdict")
        return faults

    def notes(outputs: list) -> list[str]:
        return [
            f"anchor: {label} explored {report.nodes_explored} nodes"
            for (label, _), question, report in zip(ops, asked, outputs)
            if question[0] == "crown" and not isinstance(report, Failed)
        ]

    key = tuple((q[0], q[1], q[2], tuple(q[5])) for q in asked)
    return Batch(ops, check, key, notes)


def search_hit(seed: int) -> Batch:
    """Every positive question ``q6(m, n) -> q6(p, q)`` with ``n <= 8``, and
    ``crown_pair(m) -> crown_pair(m)`` for ``m = 2..5``."""
    questions = [
        ("q6", (m, n), (p, q))
        for n in range(3, 9)
        for m in range(n + 1)
        for q in range(3, n + 1)
        for p in range(q + 1)
        if oracle.l6_closed_form(p, q, m, n)
    ]
    questions += [("crown", (m,), (m,)) for m in range(2, 6)]
    return _search_batch("search-hit", seed, questions, True, relabel_targets=False)


def search_miss(seed: int) -> Batch:
    """Negative questions: every q6 pair with ``n <= 6``, the ``n = 7`` pairs
    with target size ``q <= 4``, and ``crown_pair(m) -> crown_pair(m - 1)``
    for ``m = 3..5`` (crown 5 -> 4 once).  Larger ``n = 7`` targets run to
    seconds per question, and ``n = 8`` to tens of seconds."""
    questions = [
        ("q6", (m, n), (p, q))
        for n in range(3, 8)
        for m in range(n + 1)
        for q in range(3, (n if n <= 6 else 4) + 1)
        for p in range(q + 1)
        if not oracle.l6_closed_form(p, q, m, n)
    ]
    questions += [("crown", (m,), (m - 1,)) for m in range(3, 6)]
    return _search_batch("search-miss", seed, questions, False, relabel_targets=True)


# -- subalgebra closure ----------------------------------------------------


def closure(seed: int) -> Batch:
    """``generate_subalgebra`` on the grid algebras, n = 7..10: the ``{x0}``
    anchor of each grid (it closes to the whole algebra), and
    ``CLOSURE_DRAWS`` generator sets from every stratum of the committed
    pool.  The algebras are built here, in set-up."""
    from pmkit import catalog, dual_algebra, generate_subalgebra

    pool = json.loads(CLOSURE_POOL.read_text())
    rng = random.Random(f"closure:{seed}")
    questions = []
    grids = {}
    for n in CLOSURE_GRIDS:
        entry = pool[str(n)]
        perm = permutation(rng, 2 * n)
        grids[n] = (perm, dual_algebra(relabel(catalog.range2_grid(n), perm)))
        questions.append((n, entry["anchor"]["gens"], entry["anchor"]["size"]))
        for stratum in entry["strata"]:
            if stratum["size"] == entry["downsets"] and n > FULL_CLOSURE_MAX_GRID:
                continue
            for _ in range(CLOSURE_DRAWS):
                questions.append((n, rng.choice(stratum["entries"]), stratum["size"]))
    rng.shuffle(questions)
    ops = []
    for n, gens, _ in questions:
        perm, algebra = grids[n]
        relabelled = [frozenset(perm[i] for i in g) for g in gens]
        ops.append(
            (f"grid:{n} gens={gens}", functools.partial(generate_subalgebra, algebra, relabelled))
        )

    def check(outputs: list) -> list[str]:
        faults = []
        relations = {n: oracle.grid(n) for n in CLOSURE_GRIDS}
        for n, (_, algebra) in grids.items():
            if len(algebra) != pool[str(n)]["downsets"]:
                faults.append(f"grid:{n}: algebra has {len(algebra)} elements")
        for (label, _), (n, gens, size), result in zip(ops, questions, outputs):
            if isinstance(result, Failed):
                continue
            back = inverse(grids[n][0])
            masks = [sum(1 << back[i] for i in xs) for xs in result.generated]
            fault = oracle.closure_fault(
                relations[n],
                [sum(1 << i for i in g) for g in gens],
                masks,
                size,
                pool[str(n)]["downsets"],
            )
            if fault:
                faults.append(f"{label}: {fault}")
        return faults

    def notes(outputs: list) -> list[str]:
        found = {
            n: f"anchor: {{x0}} on grid:{n} closed to {len(result)} elements "
            f"with {result.op_applications} op applications"
            for (n, gens, _), result in zip(questions, outputs)
            if gens == [[0]] and not isinstance(result, Failed)
        }
        return [found[n] for n in sorted(found)]

    key = tuple(tuple(grids[n][0]) for n in CLOSURE_GRIDS) + tuple(
        (n, json.dumps(gens)) for n, gens, _ in questions
    )
    return Batch(ops, check, key, notes)


WORKLOADS: dict[str, Callable[[int], Batch]] = {
    "gate": gate,
    "search-hit": search_hit,
    "search-miss": search_miss,
    "closure": closure,
}
