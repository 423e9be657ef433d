"""The helpers that more than one test module uses, each defined once:
independent references, seeded generators of spaces and orders, every small
pm-space by brute force, and the source guards' reader and call walker."""

import ast
import functools
import itertools
from pathlib import Path

import pmkit
from pmkit import Poset, Space, catalog
from pmkit.errors import AntisymmetryBroken, PmkitError
from pmkit.order import iter_bits

#: The root of the repository.
ROOT = Path(__file__).resolve().parent.parent


def fs(*xs):
    return frozenset(xs)


def powerset(ground):
    ground = list(ground)
    return [
        frozenset(c)
        for k in range(len(ground) + 1)
        for c in itertools.combinations(ground, k)
    ]


def up_closure(poset, xs):
    """All points above some member of ``xs``, by ``leq``."""
    return frozenset(y for y in range(poset.n) if any(poset.leq(x, y) for x in xs))


def closed(up):
    """Reflexive-transitive closure of bit rows, by Warshall's n^2 loop and
    with no validation."""
    up = [row | 1 << i for i, row in enumerate(up)]
    for k in range(len(up)):
        for i in range(len(up)):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def outcome(call):
    """``('valid', value)`` or the raised class, message and witness."""
    try:
        return "valid", call()
    except PmkitError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def relabel(space, perm):
    """The copy of ``space`` in which point ``i`` is called ``perm[i]``."""
    up = [0] * space.n
    for i in range(space.n):
        up[perm[i]] = sum(1 << perm[j] for j in iter_bits(space.poset.up_mask(i)))
    zeta = [0] * space.n
    for i in range(space.n):
        zeta[perm[i]] = perm[space.zeta[i]]
    return Space(Poset(up), zeta)


# -- seeded generators ----------------------------------------------------------------


def random_pm_space(rng):
    """A random order on ``k <= 4`` points glued below its order dual, zeta
    swapping the two copies, plus up to two zeta-fixed points between them
    (at most 10 points)."""
    k = rng.randint(1, 4)
    fixed = rng.randint(0, min(2, 10 - 2 * k))
    chain, glue = rng.choice((0.0, 0.3, 0.6)), rng.choice((0.0, 0.2, 0.5))
    pairs = []
    for i in range(k):
        for j in range(k):
            # i <= j in the lower copy, i <= zeta(j) across; each pair
            # comes with its zeta-mirror so that zeta reverses the order.
            if i < j and rng.random() < chain:
                pairs += [(i, j), (k + j, k + i)]
            if rng.random() < glue:
                pairs += [(i, k + j), (j, k + i)]
    for z in range(2 * k, 2 * k + fixed):
        for i in rng.sample(range(k), rng.randint(0, k)):
            pairs += [(i, z), (z, k + i)]
    zeta = [k + i for i in range(k)] + list(range(k))
    zeta += range(2 * k, 2 * k + fixed)
    return Space(Poset.from_pairs(2 * k + fixed, pairs), zeta)


def loop_graph_space(k, rng):
    """Two-level space on k zeta-pairs: ``i < zeta(j)`` iff ``i ~ j`` in a
    random graph with loops on ``range(k)``."""
    p = rng.choice((0.2, 0.5, 0.8, 1.0))
    edges = [(i, j) for i in range(k) for j in range(i, k) if rng.random() < p]
    pairs = [(i, k + j) for i, j in edges] + [(j, k + i) for i, j in edges]
    return Space(Poset.from_pairs(2 * k, pairs), [*range(k, 2 * k), *range(k)])


def random_regular_space(rng):
    """One or two loop-graph parts with k <= 5 pairs each, beside up to two
    isolated fixed points and two isolated swapped pairs: every regular
    space has this form.  At most 12 points."""
    fixed, swapped = Space(Poset.antichain(1), [0]), Space(Poset.antichain(2), [1, 0])
    space = loop_graph_space(rng.randint(1, 5), rng)
    if space.n <= 8 and rng.random() < 0.5:
        other = loop_graph_space(rng.randint(1, 6 - space.n // 2), rng)
        space = catalog.disjoint_union(space, other)
    for part in [fixed] * rng.randint(0, 2) + [swapped] * rng.randint(0, 2):
        if space.n + part.n <= 12:
            space = catalog.disjoint_union(space, part)
    return space


def random_pairs(rng):
    """Pairs along a random order, self-loops included; in about a third of
    the lists one pair also appears reversed, which closes a cycle."""
    n = rng.randint(1, 14)
    perm = rng.sample(range(n), n)
    ends = [sorted((rng.randrange(n), rng.randrange(n))) for _ in range(rng.randint(0, 2 * n))]
    pairs = [(perm[i], perm[j]) for i, j in ends]
    if pairs and rng.random() < 0.3:
        a, b = rng.choice(pairs)
        pairs.insert(rng.randint(0, len(pairs)), (b, a))
    return n, pairs


def random_posets(rng, count):
    """``count`` random orders on up to 14 points (cyclic pair lists skipped)."""
    found = []
    while len(found) < count:
        n, pairs = random_pairs(rng)
        try:
            found.append(Poset.from_pairs(n, pairs))
        except AntisymmetryBroken:
            pass
    return found


# -- every small pm-space, from the definitions alone ---------------------------------


def orders(n):
    """Every partial order on ``range(n)``, as the set of pairs ``(x, y)``
    with ``x <= y``."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x < y]
    # each unordered pair is unrelated, below or above
    for choice in itertools.product((None, 0, 1), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)}
        rel |= {(x, y) if c == 0 else (y, x) for (x, y), c in zip(pairs, choice) if c is not None}
        if all((x, w) in rel for x, y in rel for v, w in rel if y == v):
            yield frozenset(rel)


def involutions(n):
    """Every permutation ``z`` of ``range(n)`` with ``z[z[x]] == x``."""
    for z in itertools.permutations(range(n)):
        if all(z[z[x]] == x for x in range(n)):
            yield z


def canonical(n, rel, z):
    """The least relabelled copy of ``(rel, z)``: equal for isomorphic spaces."""
    copies = []
    for p in itertools.permutations(range(n)):
        moved = tuple(sorted((p[x], p[y]) for x, y in rel))
        copies.append((moved, tuple(p[z[p.index(x)]] for x in range(n))))
    return min(copies)


def pm_spaces(n):
    """One ``(rel, z)`` per isomorphism class of ``n``-point pm-spaces."""
    found = {}
    zs = list(involutions(n))
    for rel in orders(n):
        for z in zs:
            # z reverses the order: x <= y gives z(y) <= z(x)
            if all((z[y], z[x]) in rel for x, y in rel):
                found.setdefault(canonical(n, rel, z), (rel, z))
    return [found[key] for key in sorted(found)]


def minimals(n, rel):
    return {x for x in range(n) if all(y == x for y, w in rel if w == x)}


def is_structure_map(src, dst, phi):
    """The definition of a pm-space morphism, checked directly: ``phi``
    preserves the order, commutes with the involutions, and every minimal
    point below ``phi(x)`` is the image of a minimal point below ``x``."""
    (n, rel, z), (m, drel, dz) = src, dst
    if any((phi[x], phi[y]) not in drel for x, y in rel):
        return False
    if any(phi[z[x]] != dz[phi[x]] for x in range(n)):
        return False
    src_min, dst_min = minimals(n, rel), minimals(m, drel)
    for x in range(n):
        pushed = {phi[y] for y in src_min if (y, x) in rel}
        if any((t, phi[x]) in drel and t not in pushed for t in dst_min):
            return False
    return True


@functools.cache
def onto(n, m):
    """Every surjective map from ``range(n)`` onto ``range(m)``."""
    return tuple(phi for phi in itertools.product(range(m), repeat=n) if len(set(phi)) == m)


def build(n, rel, z):
    up = [sum(1 << y for w, y in rel if w == x) for x in range(n)]
    return Space(Poset(up), z)


# -- the source guards ----------------------------------------------------------------


def library_sources():
    """``{file name: source}`` for every module of the library."""
    package = Path(pmkit.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    # a guard that finds no files passes unseen
    assert len(sources) >= 10
    return sources


def calls(source, name):
    """``(line, form, functions)`` for each call of ``name`` in ``source``,
    in source order: ``form`` is ``"bare"`` for ``name(...)`` and
    ``"attribute"`` for ``x.name(...)``, and ``functions`` holds the names of
    the functions around the call, outermost first."""
    found = []

    def visit(node, functions):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == name:
                    found.append((child.lineno, "bare", functions))
                elif isinstance(func, ast.Attribute) and func.attr == name:
                    found.append((child.lineno, "attribute", functions))
            inner = (*functions, child.name) if isinstance(child, ast.FunctionDef) else functions
            visit(child, inner)

    visit(ast.parse(source), ())
    return found
