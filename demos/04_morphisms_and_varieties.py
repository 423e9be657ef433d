"""Morphism search, the membership formula, and subvariety lattices.

A surjective structure map between dual spaces is the mirror image of a
subalgebra embedding, so exhaustive search over maps decides which finite
simple algebras generate which.  For the two-level bipartite family the
same question has a closed form; the library keeps both routes and checks
them against each other.
"""

from pmkit import catalog, l6_member, l6_member_oracle, search_surjective
from pmkit.variety import SimpleRef, subvariety_lattice

# Search with a witness.
src, names_src = catalog.named_space("q6:0,3")
dst, names_dst = catalog.named_space("q5")
report = search_surjective(src, dst)
print("q6(0,3) onto q5:", report.found)
print("witness:", {names_src[x]: names_dst[t] for x, t in enumerate(report.witness.mapping)})

# The closed form against the search on a few parameter tuples.
for tup in [(3, 6, 7, 8), (2, 6, 7, 8), (0, 3, 0, 4), (0, 4, 0, 3)]:
    formula = l6_member(*tup)
    oracle = l6_member_oracle(*tup)
    print(f"member{tup}: formula={formula} search={oracle}")

# The lattice of subvarieties generated by the six small simples: 14
# non-trivial members arranged in a distributive lattice.
lattice = subvariety_lattice([SimpleRef.builtin(i) for i in range(6)])
print("\nnon-trivial subvarieties:", lattice.nontrivial_count)
for downset in sorted(lattice.downsets, key=lambda d: (len(d), sorted(d))):
    print("  " + lattice.node_label(downset))

# The Kleene generators line up in a chain.
chain = subvariety_lattice(
    [
        SimpleRef.builtin(0),
        SimpleRef.builtin(2),
        SimpleRef.builtin(5),
        SimpleRef.l6(0, 3),
        SimpleRef.l6(0, 4),
        SimpleRef.l6(0, 5),
    ]
)
print("\nchain:", " < ".join(chain.node_label(d) for d in sorted(chain.downsets, key=len)))

# DOT output for rendering.
print("\n" + lattice.to_dot())
