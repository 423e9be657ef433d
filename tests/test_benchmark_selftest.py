"""The benchmark's self-test still passes against the library.

``perfbench/selftest.py`` checks the benchmark's inputs and oracles against
pmkit (the catalog relations its workloads ask about, the closed form, the
committed closure pool), so a library change that breaks them fails here
and not only in a benchmark run.
"""

import os
import subprocess
import sys

from support import ROOT

SELFTEST = ROOT / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"
