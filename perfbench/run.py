"""Run one pmkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; pmkit is imported from ``src/`` there, so
nothing needs installing.  The workload's batch is answered repeatedly,
one pass after another, while another pass still fits in ``--seconds``
(at least one pass).  Every answer is checked.

Every time reported is in reference seconds.  A ``SIGALRM`` handler times
a fixed pure-Python calibration loop every ``CALIBRATION_EVERY_S`` of wall
time, inside questions as well as between them.  A question's time leaves
out the samples taken during it and is scaled by ``CALIBRATION_REF_S`` over
the median of the samples taken during it or within
``CALIBRATION_MARGIN_S`` of it.  On a shared 2-vCPU Xeon VM the speed
drifted by up to 2x over tens of seconds, and the drift slowed pmkit and
the loop alike, so the scaling takes most of the drift out of run-to-run
comparisons while a change to pmkit shows in full.  The printed report
gives the raw figures beside the scaled ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first repeats
that untraced measurement for half the time, then sets the workload up and
answers one pass with the tracer installed, reports the per-layer metrics
and writes every span to ``.bench_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an answer is wrong and 2 when pmkit is missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
#: Nominal seconds of one calibration sample, near the fastest seen on a
#: 2-vCPU Intel Xeon VM (2.1 GHz) under CPython 3.11.7; reported times are
#: scaled to this speed.
CALIBRATION_REF_S = 0.0035
#: Wall seconds between two calibration samples.
CALIBRATION_EVERY_S = 0.1
#: Samples this close to a question also set its scale.
CALIBRATION_MARGIN_S = 0.3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _Rows:
    """Stand-in for a bit-packed order: a method call with a bounds check."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = tuple((i * 2654435761) & 0xFFFF for i in range(64))

    def leq(self, x: int, y: int) -> bool:
        if not 0 <= x < 64:
            raise IndexError(x)
        return bool(self.rows[x] >> (y & 15) & 1)


_ROWS = _Rows()


def calibration_work() -> int:
    """Fixed pure-Python work in the mix of pmkit's hot paths: integer and
    bit operations, dict updates, method calls with a bounds check, small
    frozensets and tuples.  Either half alone tracked some questions'
    drift worse than the two together."""
    acc = 0
    table = {}
    for i in range(12000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> 3 | (x & 7)
        table[x & 1023] = acc
    rows = _ROWS
    seen: dict = {}
    for i in range(1500):
        x, y = i & 63, (i * 7) & 63
        if rows.leq(x, y):
            acc += 1
        key = frozenset((x, y & 7))
        seen[key] = seen.get(key, 0) + 1
        acc ^= len((x, y, acc))
    return acc


class Calibration:
    """Calibration samples taken by a ``SIGALRM`` handler while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._spent = [0.0]  # running total, for the sample time inside an interval
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        calibration_work()
        spent = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(spent)
        self._spent.append(self._spent[-1] + spent)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the samples taken inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - (self._spent[hi] - self._spent[lo])

    def scale(self, start: float, end: float) -> float:
        """Reference over the median sample inside or near ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start - CALIBRATION_MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + CALIBRATION_MARGIN_S)
        window = self.seconds[lo:hi] or self.seconds
        return CALIBRATION_REF_S / statistics.median(window)

    def scaled(self, start: float, end: float) -> float:
        return self.net(start, end) * self.scale(start, end)

    def describe(self) -> str:
        median = statistics.median(self.seconds)
        return (f"calibration: {len(self.seconds)} samples, median {median * 1e3:.4g} ms, "
                f"min {min(self.seconds) * 1e3:.4g} ms, max {max(self.seconds) * 1e3:.4g} ms; "
                f"reference {CALIBRATION_REF_S * 1e3:g} ms")


class Tally:
    """Question intervals, passes and outcomes of one measurement."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.intervals: list[tuple[float, float]] = []
        self.labels: list[str] = []
        self.passes: list[tuple[int, int]] = []
        self.failed = 0
        self.faults: list[str] = []
        self.notes: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def run_pass(self, batch, errors, tracer=None) -> None:
        """Answer every question once, then check the answers."""
        clock = time.perf_counter
        first = len(self.intervals)
        answers = []
        # As timeit does: no cyclic collection while timing, so when a
        # collection happens to fall does not move the figures.
        gc.collect()
        gc.disable()
        try:
            for label, call in batch.ops:
                sid = tracer.open("op") if tracer else None
                start = clock()
                try:
                    answer = call()
                except errors as exc:
                    answer = workloads.Failed(exc)
                end = clock()
                if tracer:
                    tracer.close(sid)
                self.intervals.append((start, end))
                self.labels.append(label)
                answers.append(answer)
        finally:
            gc.enable()
        self.passes.append((first, len(self.intervals)))
        self.failed += sum(isinstance(a, workloads.Failed) for a in answers)
        self.faults += batch.check(answers)
        self.notes = batch.notes(answers)

    def measure(self, batch, seconds, errors) -> None:
        """Run passes while one more is expected to fit in ``seconds``."""
        start = time.perf_counter()
        while True:
            self.run_pass(batch, errors)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.walls(self.raw())) > seconds:
                return

    def raw(self) -> list[float]:
        return [self.calibration.net(a, b) for a, b in self.intervals]

    def scaled(self) -> list[float]:
        return [self.calibration.scaled(a, b) for a, b in self.intervals]

    def walls(self, times: list[float]) -> list[float]:
        """Per-pass totals: the time to answer the whole batch."""
        return [sum(times[a:b]) for a, b in self.passes]

    def by_label(self, times: list[float]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for label, t in zip(self.labels, times):
            out.setdefault(label, []).append(t)
        return out


def tail(samples):
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least ten samples beyond it.  Below twenty samples none has,
    and the slowest sample (p100) stands in."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def median_hd(samples) -> float:
    """Harrell-Davis estimate of the median: every order statistic weighted
    by the Beta((n+1)/2, (n+1)/2) mass of its slot.  A single-pass batch
    has few samples near its middle, and the plain median jumps between
    neighbours several percent apart; this estimate moves smoothly."""
    ordered = sorted(samples)
    n = len(ordered)
    a = (n + 1) / 2
    cdf = [regularized_beta(a, a, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by its continued fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - regularized_beta(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    f = c = tiny
    d = 0.0
    for i in range(1, 2000):
        if i == 1:
            numerator = 1.0
        elif i % 2 == 0:
            m = (i - 2) // 2
            numerator = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            m = (i - 1) // 2
            numerator = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + numerator / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return front * f


def end_to_end(workload, seed, seconds, errors, setup, calibration, imported):
    tally = Tally(calibration)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        batch = setup(seed)
        setups.append((start, time.perf_counter()))
    tally.measure(batch, seconds, errors)

    raw_times, times = tally.raw(), tally.scaled()
    _, raw_tail, _ = tail(raw_times)
    pct, tail_s, beyond = tail(times)
    raw = {
        "setup_s": statistics.median(calibration.net(*s) for s in setups),
        "wall_s": statistics.median(tally.walls(raw_times)),
        "verdict_p50_ms": median_hd(raw_times) * 1e3,
        "verdict_tail_ms": raw_tail * 1e3,
    }
    metrics = {
        "setup_s": (statistics.median(calibration.scaled(*s) for s in setups), "s"),
        "wall_s": (statistics.median(tally.walls(times)), "s"),
        "verdict_p50_ms": (median_hd(times) * 1e3, "ms"),
        "verdict_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload: {workload}  seed: {seed}  passes: {len(tally.passes)}  "
          f"questions per pass: {len(batch.ops)}")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name}: {value:.6g} {unit}{extra}")
    print(f"import of pmkit (not in setup_s): {calibration.scaled(*imported):.6g} s  "
          f"(raw {calibration.net(*imported):.6g})")
    print(f"verdict_tail_ms is p{pct:g} of {len(times)} samples ({beyond} beyond)")
    print(f"failed_share: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} questions raised PmkitError)")
    print(calibration.describe())
    for note in tally.notes:
        print(note)
    if workload == "gate":
        print_criteria(tally, times)
    return [tally], metrics


def print_criteria(tally, times) -> None:
    for label, values in sorted(tally.by_label(times).items()):
        print(f"acceptance.{label}_s: {statistics.median(values):.6g} s")


def traced(workload, seed, seconds, errors, setup, calibration):
    import tracer as tracing

    untraced = Tally(calibration)
    untraced.measure(setup(seed), seconds / 2, errors)
    untraced_times = untraced.scaled()

    tally = Tally(calibration)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        sid = tracer.open("setup")
        batch = setup(seed)
        tracer.close(sid)
        tally.run_pass(batch, errors, tracer)
    finally:
        tracer.uninstall()
    traced_wall = tally.walls(tally.scaled())[0]
    untraced_wall = statistics.median(untraced.walls(untraced_times))

    # One scale for every span of the traced pass, so a parent's self time
    # stays its span minus its children's.
    first, last = tally.intervals[0][0], tally.intervals[-1][1]
    scale = calibration.scale(first, last)
    layers = tracer.layer_times(calibration.net)
    values: dict[str, float] = {}
    for name in tracing.LAYERS:
        row = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            values[f"{name}.{key}"] = value * scale if key.endswith("_s") else value
    values.update({f"{name}.calls": n for name, n in tracer.counts().items()})
    values.update(tracer.totals)
    nodes = values["morphism.search.nodes"]
    values["morphism.search.us_per_node"] = (
        values["morphism.search.busy_s"] / nodes * 1e6 if nodes else 0.0
    )
    ops = values["subalgebra.closure.op_applications"]
    values["subalgebra.closure.useful_ratio"] = (
        values["subalgebra.closure.new_elements"] / ops if ops else 0.0
    )
    values["trace.spans"] = len(tracer.start)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall

    print(f"workload: {workload}  seed: {seed}  traced pass: {len(batch.ops)} questions  "
          f"untraced passes: {len(untraced.passes)}")
    for name, value in sorted(values.items()):
        print(f"{name}: {value:.6g}" if isinstance(value, float) else f"{name}: {value}")
    print(calibration.describe())
    for note in tally.notes:
        print(note)
    if workload == "gate":
        print_criteria(untraced, untraced_times)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.tsv.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    return [untraced, tally], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pmkit" / "__init__.py").is_file():
        print(f"error: pmkit sources not found under {src}", file=sys.stderr)
        return 2
    with Calibration() as calibration:
        start = time.perf_counter()
        sys.path.insert(0, str(src))
        import pmkit
        import pmkit.acceptance  # noqa: F401  (not imported by the package)

        imported = (start, time.perf_counter())
        setup = workloads.WORKLOADS[args.workload]
        errors = pmkit.PmkitError
        if args.trace:
            tallies, metrics = traced(
                args.workload, args.seed, args.seconds, errors, setup, calibration
            )
        else:
            tallies, metrics = end_to_end(
                args.workload, args.seed, args.seconds, errors, setup, calibration, imported
            )
    faults = [fault for tally in tallies for fault in tally.faults]
    for fault in faults[:20]:
        print(f"WRONG: {fault}")
    correct = not faults
    print(json.dumps({
        "correct": correct,
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
