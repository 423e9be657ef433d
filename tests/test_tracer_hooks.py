"""The benchmark tracer's hooks still fit the library.

``perfbench/tracer.py`` patches pmkit functions and class attributes by
name, so removing or renaming one of them breaks only the traced benchmark
run.  This test installs the tracer, checks that every hook replaced its
target, and that uninstalling puts every original back.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_install_patches_and_uninstall_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
