"""Command-line front door.

Spaces are addressed either by catalog token (``q0`` .. ``q5``, ``q6:m,n``,
``grid:n``, ``crown:n``, ``chain3``) or by the path of a JSON space
document.  Reports are line-oriented ``key: value`` text, with DOT blocks
for lattice output; ``verify-paper --json`` prints a JSON list instead.
Exit codes: 0 for a true verdict or plain success, 1 for a false verdict,
2 for usage or validation errors.

The environment variable ``PMKIT_BUDGET`` overrides the search node budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import acceptance, catalog
from .algebra import dual_algebra
from .document import NamedSpace, parse_space
from .errors import NotAnElement, ParseError, PmkitError
from .morphism import DEFAULT_BUDGET, is_pm_isomorphic, search_surjective
from .order import DOWNSET_LIMIT
from .subalgebra import _close, one_generator_growth
from .variety import SimpleRef, l6_member, l6_member_oracle, subvariety_lattice

OK, FALSE, ERROR = 0, 1, 2


def _budget() -> int:
    raw = os.environ.get("PMKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise PmkitError(f"PMKIT_BUDGET must be an integer, got {raw!r}") from None


def resolve_space(token: str) -> NamedSpace:
    """Catalog token or path to a space document."""
    try:
        space, names = catalog.named_space(token)
        return NamedSpace(space, names)
    except PmkitError as exc:
        path = Path(token)
        try:
            text = path.read_text(encoding="utf-8") if path.exists() else None
        except OSError as err:
            raise ParseError(f"cannot read {token!r}: {err.strerror}") from None
        except UnicodeDecodeError as err:
            raise ParseError(
                f"{token!r} is not UTF-8 text (byte {err.start}: {err.reason})"
            ) from None
        if text is not None:
            return parse_space(text)
        if token.startswith(tuple(f"{family}:" for family in catalog.FAMILIES)):
            raise exc
        raise PmkitError(
            f"{token!r} is neither a catalog token nor an existing file"
        ) from None


def _simple_ref(token: str) -> SimpleRef:
    return SimpleRef.custom(token, resolve_space(token).space)


def cmd_validate(args) -> int:
    try:
        named = resolve_space(args.space)
    except PmkitError as exc:
        print(f"valid: false")
        print(f"error: {type(exc).__name__}: {exc}")
        return FALSE
    print("valid: true")
    print(f"elements: {named.space.n}")
    return OK


def cmd_kind(args) -> int:
    space = resolve_space(args.space).space
    kind = space.kind()
    # at height <= 1 the range is the zeta-width, so only a space of greater
    # height lists its downsets
    range_of = kind.zeta_width if kind.regular else dual_algebra(space).range_of()
    print(f"regular: {str(kind.regular).lower()}")
    print(f"kleene: {str(kind.kleene).lower()}")
    print(f"width: {kind.zeta_width}")
    print(f"range: {range_of}")
    return OK


def cmd_simple(args) -> int:
    named = resolve_space(args.space)
    witness = named.space.simple_component()
    if witness is None:
        print("simple: false")
        return FALSE
    print("simple: true")
    print(f"component: {', '.join(named.set_names(witness))}")
    return OK


def cmd_components(args) -> int:
    named = resolve_space(args.space)
    blocks = named.space.poset.order_components()
    print(f"count: {len(blocks)}")
    for i, block in enumerate(blocks):
        print(f"component {i}: {', '.join(named.set_names(block))}")
    return OK


def cmd_dual(args) -> int:
    named = resolve_space(args.space)
    if not args.tables:
        # counted, not listed, so the size may pass the listing limit
        print(f"size: {named.space.poset.count_downsets()}")
        return OK
    algebra = dual_algebra(named.space)
    print(f"size: {len(algebra)}")
    for xs in algebra.elements:
        member = "{" + ", ".join(named.set_names(xs)) + "}"
        star = "{" + ", ".join(named.set_names(algebra.star(xs))) + "}"
        prime = "{" + ", ".join(named.set_names(algebra.prime(xs))) + "}"
        print(f"element: {member} star: {star} prime: {prime}")
    return OK


def cmd_congruences(args) -> int:
    named = resolve_space(args.space)
    sets = named.space.congruence_sets()
    print(f"count: {len(sets)}")
    for xs in sets:
        print("congruence set: {" + ", ".join(named.set_names(xs)) + "}")
    return OK


def cmd_morphism(args) -> int:
    src = resolve_space(args.src)
    dst = resolve_space(args.dst)
    report = search_surjective(src.space, dst.space, _budget())
    print(f"found: {str(report.found).lower()}")
    print(f"nodes: {report.nodes_explored}")
    if report.witness is not None:
        pairs = ", ".join(
            f"{src.name_of(x)}->{dst.name_of(t)}"
            for x, t in enumerate(report.witness.mapping)
        )
        print(f"witness: {pairs}")
        return OK
    return FALSE


def cmd_iso(args) -> int:
    a = resolve_space(args.a)
    b = resolve_space(args.b)
    verdict = is_pm_isomorphic(a.space, b.space, _budget())
    print(f"isomorphic: {str(verdict).lower()}")
    return OK if verdict else FALSE


def cmd_member(args) -> int:
    verdict = l6_member(args.p, args.q, args.m, args.n)
    print(f"member: {str(verdict).lower()}")
    if args.oracle:
        oracle = l6_member_oracle(args.p, args.q, args.m, args.n, _budget())
        print(f"oracle: {str(oracle).lower()}")
        if oracle != verdict:
            print("error: formula and search disagree")
            return ERROR
    return OK if verdict else FALSE


def cmd_lattice(args) -> int:
    gens = [_simple_ref(token) for token in args.generators]
    lattice = subvariety_lattice(gens, _budget())
    print(f"nontrivial subvarieties: {lattice.nontrivial_count}")
    print(f"chain: {str(lattice.is_chain()).lower()}")
    print(lattice.to_dot())
    return OK


def cmd_subalg(args) -> int:
    named = resolve_space(args.space)
    poset = named.space.poset
    index = {name: i for i, name in enumerate(named.names)}
    gens = []
    for token in args.gens:
        members = [t.strip() for t in token.split(",") if t.strip()]
        unknown = [t for t in members if t not in index]
        if unknown:
            raise PmkitError(f"unknown element names: {', '.join(unknown)}")
        points = sorted({index[t] for t in members})
        if not poset.is_decreasing(points):
            raise NotAnElement(f"{points} is not a downset of this space")
        gens.append(poset.mask_of(points))
    # closed on the space alone: the downsets are never listed
    result = _close(named.space, gens, DOWNSET_LIMIT)
    print(f"size: {len(result)}")
    print(f"op_applications: {result.op_applications}")
    if args.list:
        for xs in result.generated:
            print("member: {" + ", ".join(named.set_names(xs)) + "}")
    return OK


def cmd_grow(args) -> int:
    # resolved as its token, the grid is capped like any catalog space
    catalog.named_space(f"grid:{args.n}")
    size = one_generator_growth(args.n)
    print(f"size: {size}")
    print(f"bound: {args.n}")
    return OK if size >= args.n else FALSE


def cmd_verify_paper(args) -> int:
    results = acceptance.run_all(_budget())
    failed = sum(not r.ok for r in results)
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"criterion {r.number:2d} {status} {r.title} ({r.detail})")
        print(f"summary: {len(results) - failed}/{len(results)} passed")
    return OK if failed == 0 else FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmkit",
        description="Finite pseudocomplemented de Morgan algebras via dual spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space document or catalog token")
    p.add_argument("space")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kind", help="regularity, Kleene condition, width, range")
    p.add_argument("space")
    p.set_defaults(func=cmd_kind)

    p = sub.add_parser("simple", help="simplicity test with witness component")
    p.add_argument("space")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("components", help="order components")
    p.add_argument("space")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("dual", help="dual algebra size and optional op tables")
    p.add_argument("space")
    p.add_argument("--tables", action="store_true")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("congruences", help="congruence sets of the dual algebra")
    p.add_argument("space")
    p.set_defaults(func=cmd_congruences)

    p = sub.add_parser("morphism", help="search a surjective structure map")
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("iso", help="isomorphism test")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("member", help="closed-form membership for bipartite labels")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check by search")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("lattice", help="subvariety lattice of simple generators")
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("subalg", help="generated subalgebra in the dual algebra")
    p.add_argument("space")
    p.add_argument("--gens", nargs="*", action="extend", default=[],
                   help="each generator as comma-separated element names")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_subalg)

    p = sub.add_parser("grow", help="one-generator growth in the grid algebra")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("verify-paper", help="run the built-in verification suite")
    p.add_argument("--json", action="store_true",
                   help="print number, title, ok, detail and seconds per criterion")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except PmkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
