"""Regenerate ``closure_pool.json``, the committed generator pool of the
``closure`` workload.

For each grid size it draws one- and two-generator sets with a fixed seed,
computes each closure with the reference closure in ``oracle.py`` (no pmkit
involved) and keeps up to ``CAP`` sets per stratum, a stratum being the
pair (number of generators, closure size).  The workload draws a fixed
number of sets from every stratum, so each seed asks for the same amount
of work.

    python3 perfbench/make_pool.py        # rewrites perfbench/closure_pool.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

GRIDS = (7, 8, 9, 10)
CAP = 6
SINGLE_DRAWS = 600
PAIR_DRAWS = 120
POOL_PATH = Path(__file__).with_name("closure_pool.json")


def points(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def build_grid(n: int, rng: random.Random) -> dict:
    rel = oracle.grid(n)
    downsets = sorted(rel.downsets())
    strata: dict[tuple[int, int], list] = {}
    draws = [[d] for d in rng.sample(downsets, min(SINGLE_DRAWS, len(downsets)))]
    draws += [rng.sample(downsets, 2) for _ in range(PAIR_DRAWS)]
    for gens in draws:
        size = len(oracle.reference_closure(rel, gens))
        entries = strata.setdefault((len(gens), size), [])
        if len(entries) < CAP:
            entries.append([points(g) for g in gens])
    return {
        "downsets": len(downsets),
        "anchor": {"gens": [[0]], "size": len(oracle.reference_closure(rel, [1]))},
        "strata": [
            {"gens_count": k, "size": size, "entries": strata[k, size]}
            for k, size in sorted(strata)
        ],
    }


def format_pool(pool: dict) -> str:
    """JSON with one stratum per line, so a regenerated pool diffs cleanly."""
    lines = ["{"]
    for i, (n, grid) in enumerate(pool.items()):
        lines.append(f' "{n}": {{"downsets": {grid["downsets"]}, '
                     f'"anchor": {json.dumps(grid["anchor"])}, "strata": [')
        strata = [f"  {json.dumps(s)}" for s in grid["strata"]]
        lines.append(",\n".join(strata))
        lines.append(" ]}" + ("," if i < len(pool) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    rng = random.Random("closure-pool")
    pool = {str(n): build_grid(n, rng) for n in GRIDS}
    POOL_PATH.write_text(format_pool(pool))
    for n, grid in pool.items():
        sizes = [(s["gens_count"], s["size"], len(s["entries"])) for s in grid["strata"]]
        print(f"grid {n}: {grid['downsets']} downsets, strata {sizes}")


if __name__ == "__main__":
    main()
