"""Importing descentlab: the BLAS thread pool it leaves behind."""

import os
import subprocess
import sys

import pytest

THREADS = "import os; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc on a Linux machine with 2 or more cores",
)


def _threads(code, **env):
    """Threads running and OPENBLAS_NUM_THREADS after ``code``, in a fresh interpreter."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env)
    proc = subprocess.run([sys.executable, "-c", f"{code}; {THREADS}"], env=environ,
                          capture_output=True, text=True, timeout=120, check=True)
    count, variable = proc.stdout.split()
    return int(count), variable


def test_descentlab_loads_numpy_with_one_blas_thread():
    pool = _threads("import numpy")[0]
    if pool < 2:
        pytest.skip("numpy starts no BLAS thread pool here")
    assert _threads("import descentlab") == (1, "None")
    # a caller's choice is kept, and so is a pool numpy started first
    assert _threads("import descentlab", OPENBLAS_NUM_THREADS="2") == (2, "2")
    assert _threads("import numpy; import descentlab") == (pool, "None")
