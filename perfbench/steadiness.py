"""Steadiness report: run each workload repeatedly and print the median and
quartiles of every metric, to set and check the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/steadiness.py --workloads closure --runs 5 --trace 1 --same-seed

Each run is ``run.py`` in its own process, one after another.  The spread
is (q3 - q1) / median with Python's ``statistics.quantiles(values, n=4)``.
For an end-to-end metric the status compares it with the metric's bound:
``ok`` below a third of the bound, ``wide`` up to the bound, ``OVER``
beyond it (``setup_s`` spread is not gated).  With ``--same-seed`` every
count must repeat exactly: ``exact`` or ``NOT EXACT``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"wrong answers in {' '.join(cmd)}:\n{done.stdout}")
    return result


def status(name: str, unit: str, values: list[float], spread: float, bounds: dict,
           same_seed: bool) -> str:
    if unit == "count":
        if not same_seed:
            return ""
        return "exact" if len(set(values)) == 1 else "NOT EXACT"
    if name not in bounds:
        return ""
    if name == "setup_s":
        return "not gated"
    bound = bounds[name]
    if spread < bound / 3:
        return "ok"
    return "wide" if spread <= bound else "OVER"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="gate,search-hit,search-miss,closure")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="run every repeat with the first seed")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for i in range(args.runs):
            seed = args.first_seed if args.same_seed else args.first_seed + i
            result = run_once(workload, seed, seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload}: {args.runs} runs, trace {args.trace}, "
              f"{failed} of {attempted} questions failed")
        print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  status")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            mark = status(name, units[name], vals, spread, bounds, args.same_seed)
            print(f"{name:38} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}  {mark}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
