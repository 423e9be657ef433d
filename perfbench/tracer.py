"""Outside-in tracer for the benchmark's traced run.

Nothing under ``src/`` changes.  :func:`install` replaces public pmkit
functions and methods with wrappers from here, at module and class level,
and :meth:`Tracer.uninstall` puts the originals back.  A module function is
replaced in every ``pmkit`` module that holds a reference to it, so calls
between pmkit modules (``acceptance`` to ``morphism``, say) are seen too.

Each wrapped call records a span (name, start, end, parent span) in
``array`` columns kept in memory; :meth:`Tracer.write`
dumps them once the run ends.  ``Poset.leq`` is hot enough that it is only
counted, with no span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time
from array import array
from collections import Counter

#: Layers with spans, in report order.  ``op`` is the benchmark's own span
#: around one question; its self time is time spent outside every layer.
LAYERS = (
    "op",
    "morphism.search",
    "morphism.check",
    "morphism.q6_criteria",
    "morphism.iso",
    "order.downsets",
    "algebra.build",
    "algebra.unary",
    "algebra.query",
    "subalgebra.closure",
    "variety.lattice",
    "variety.oracle",
)
#: Work counts the wrappers add up from arguments and results.
TOTALS = (
    "morphism.search.nodes",
    "order.downsets.sets",
    "algebra.build.elements",
    "subalgebra.closure.op_applications",
    "subalgebra.closure.elements",
    "subalgebra.closure.new_elements",
)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.totals = Counter(dict.fromkeys(TOTALS, 0))
        self._counters: dict[str, itertools.count] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, func, on_result=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counted(self, name: str, func):
        counter = self._counters[name] = itertools.count()

        @functools.wraps(func)
        def traced(*args, _next=next, _counter=counter):
            _next(_counter)
            return func(*args)

        return traced

    # -- patching --------------------------------------------------------

    def patch_function(self, module, attr: str, replacement) -> None:
        """Replace ``module.attr`` in every pmkit module that refers to it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "pmkit" and not mod_name.startswith("pmkit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, replacement(original))

    def patch_method(self, cls, attr: str, replacement) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, replacement(original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Call counts of the counted functions; read once, after the run."""
        return {name: next(counter) for name, counter in self._counters.items()}

    def layer_times(self, duration=None) -> dict[str, dict[str, float]]:
        """Per layer: spans, busy seconds and self seconds.

        ``duration(start, end)`` measures a span (default: ``end - start``).
        Busy time sums spans whose parent is of another layer, so a layer
        calling itself is not counted twice.  Self time is a span minus its
        direct children.
        """
        spans = len(self.start)
        measure = duration or (lambda start, end: end - start)
        durations = [measure(self.start[i], self.end[i]) for i in range(spans)]
        children = [0.0] * spans
        for i in range(spans):
            parent = self.parent[i]
            if parent >= 0:
                children[parent] += durations[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(spans):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += durations[i] - children[i]
            parent = self.parent[i]
            if parent < 0 or self.name[parent] != self.name[i]:
                row["busy_s"] += durations[i]
        return out

    def write(self, path) -> None:
        """Dump every span as gzipped TSV: id, parent, name, start, end (s)."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each measured pmkit layer."""
    from pmkit import algebra, morphism, order, subalgebra, variety

    totals = tracer.totals

    def spans(name, on_result=None):
        return lambda original: tracer.wrap(name, original, on_result)

    def count_nodes(args, report):
        totals["morphism.search.nodes"] += report.nodes_explored

    def count_sets(args, sets):
        totals["order.downsets.sets"] += len(sets)

    def count_elements(args, result):
        totals["algebra.build.elements"] += len(args[0])

    def closure(original):
        traced = tracer.wrap("subalgebra.closure", original, count_closure)

        def generate_subalgebra(algebra, gens):
            return traced(algebra, [frozenset(g) for g in gens])

        return generate_subalgebra

    def count_closure(args, result):
        algebra, gens = args
        seeds = {algebra.zero, algebra.one, *gens}
        totals["subalgebra.closure.op_applications"] += result.op_applications
        totals["subalgebra.closure.elements"] += len(result)
        totals["subalgebra.closure.new_elements"] += len(result) - len(seeds)

    tracer.patch_function(morphism, "search_surjective", spans("morphism.search", count_nodes))
    tracer.patch_function(morphism, "check_pm_morphism", spans("morphism.check"))
    tracer.patch_function(morphism, "check_q6_criteria", spans("morphism.q6_criteria"))
    tracer.patch_function(morphism, "is_pm_isomorphic", spans("morphism.iso"))
    tracer.patch_method(order.Poset, "leq", lambda f: tracer.counted("order.leq", f))
    tracer.patch_method(order.Poset, "downsets", spans("order.downsets", count_sets))
    tracer.patch_method(algebra.Algebra, "__init__", spans("algebra.build", count_elements))
    for name in ("star", "prime"):
        tracer.patch_method(algebra.Algebra, name, spans("algebra.unary"))
    for name in (
        "range_of",
        "congruence_sets",
        "is_regular",
        "moisil_trivial",
        "determination_trivial",
        "reconstruct_space",
    ):
        tracer.patch_method(algebra.Algebra, name, spans("algebra.query"))
    tracer.patch_function(subalgebra, "generate_subalgebra", closure)
    tracer.patch_function(variety, "subvariety_lattice", spans("variety.lattice"))
    tracer.patch_function(variety, "l6_member_oracle", spans("variety.oracle"))
