"""The benchmark tracer's hooks still fit the library.

``perfbench/tracer.py`` patches pmkit functions and class attributes by
name, so removing or renaming one of them breaks only the traced benchmark
run.  These tests install the tracer, check that every hook replaced its
target, that uninstalling puts every original back, and that the traced
closure counts are the result's own.
"""

import importlib.util
from pmkit import catalog, dual_algebra, subalgebra
from support import ROOT

TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores():
    module = load_tracer()
    tracer = module.Tracer()
    try:
        module.install(tracer)
        patched = list(tracer._restore)
        kept = [key for owner, key, original in patched if vars(owner)[key] is original]
    finally:
        tracer.uninstall()
    assert patched and not kept
    for owner, key, original in patched:
        assert vars(owner)[key] is original, (owner, key)


def test_tracer_reads_the_closure_counts():
    """The traced closure reports the result's own ``op_applications``."""
    module = load_tracer()
    tracer = module.Tracer()
    algebra = dual_algebra(catalog.range2_grid(7))
    try:
        module.install(tracer)
        result = subalgebra.generate_subalgebra(algebra, [[0]])
    finally:
        tracer.uninstall()
    assert (len(result), result.op_applications) == (277, 334)
    assert tracer.totals["subalgebra.closure.op_applications"] == 334
    assert tracer.totals["subalgebra.closure.elements"] == 277
