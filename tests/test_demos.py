"""The narrative demos: every one runs to completion, and every demo
reads only catalog names that exist.

Demo 04, whose search-oracle loop is the slowest, takes about a second.
"""

import ast
import os
import subprocess
import sys

import pytest

from pmkit import catalog
from support import ROOT

DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
FAST = ["01", "02", "03", "04", "05"]


def test_every_demo_is_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize(
    "demo", [d for d in DEMOS if d.name[:2] in FAST], ids=lambda d: d.name
)
def test_fast_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_reads_existing_catalog_names(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "catalog"
    }
    assert read, demo.name
    missing = sorted(name for name in read if not hasattr(catalog, name))
    assert not missing, missing
