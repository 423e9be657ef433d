"""Self-test of the benchmark's inputs and oracles; times nothing.

    python3 perfbench/selftest.py

Checks that every workload builds the same batch from the same seed and
another batch from another seed; that the oracle's relations are the
catalog spaces the workloads ask about; that the closed form agrees with
``pmkit.l6_member``; that the committed closure pool reproduces under the
reference closure; and that the witness test rejects a broken map.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from pmkit import catalog, l6_member  # noqa: E402


def same_space(rel: oracle.Relation, space) -> bool:
    return rel.zeta == space.zeta and all(
        rel.up[i] == space.poset.up_mask(i) for i in range(space.n)
    )


def checks():
    for name, setup in workloads.WORKLOADS.items():
        first, again, other = setup(1).key, setup(1).key, setup(2).key
        yield f"{name}: seed 1 gives the same batch twice", first == again
        yield f"{name}: seeds 1 and 2 give different batches", first != other

    yield "q6 relations match the catalog", all(
        same_space(oracle.q6(m, n), catalog.q6(m, n))
        for n in range(3, 9) for m in range(n + 1)
    )
    yield "crown relations match the catalog", all(
        same_space(oracle.crown(n), catalog.crown_pair(n)) for n in range(2, 6)
    )
    yield "grid relations match the catalog", all(
        same_space(oracle.grid(n), catalog.range2_grid(n)) for n in workloads.CLOSURE_GRIDS
    )
    yield "closed form equals l6_member", all(
        oracle.l6_closed_form(p, q, m, n) == l6_member(p, q, m, n)
        for n in range(3, 9) for m in range(n + 1)
        for q in range(3, 9) for p in range(q + 1)
    )

    pool = json.loads(workloads.CLOSURE_POOL.read_text())
    for n in workloads.CLOSURE_GRIDS:
        rel, grid = oracle.grid(n), pool[str(n)]
        yield f"grid:{n} downset count", len(rel.downsets()) == grid["downsets"]
        small = [
            (entry, stratum["size"])
            for stratum in grid["strata"] if stratum["size"] <= 200
            for entry in stratum["entries"]
        ]
        yield f"grid:{n} pool sizes up to 200 reproduce", all(
            len(oracle.reference_closure(rel, [sum(1 << i for i in g) for g in gens])) == size
            for gens, size in small
        )

    src, dst = oracle.q6(2, 4), oracle.q6(0, 3)
    yield "identity is a structure map", oracle.structure_map_fault(src, src, list(range(8))) is None
    yield "a constant map is rejected", oracle.structure_map_fault(src, dst, [0] * 8) is not None


def main() -> int:
    for label, ok in checks():
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
