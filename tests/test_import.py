"""Importing descentlab: its public names, the BLAS pool and the modules it leaves behind."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import descentlab

# the modules whose __all__ the package re-exports
PUBLIC_MODULES = ["critical", "engine", "errors", "experiments", "inverse", "jacobi", "zoo"]

THREADS = "import os; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"

COUNTS_THREADS = pytest.mark.skipif(
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


def test_the_package_exports_each_modules_all_and_nothing_else():
    modules = [importlib.import_module(f"descentlab.{name}") for name in PUBLIC_MODULES]
    names = [name for module in modules for name in module.__all__]
    assert descentlab.__all__ == sorted(descentlab.__all__)
    assert descentlab.__all__ == sorted(names)
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(descentlab, name) is value
            # a class or function defined under this name in this module
            assert (value.__name__, value.__module__) == (name, module.__name__)
    namespace = {}
    exec("from descentlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == descentlab.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


@COUNTS_THREADS
def test_descentlab_loads_numpy_with_one_blas_thread():
    pool = _threads("import numpy")[0]
    if pool < 2:
        pytest.skip("numpy starts no BLAS thread pool here")
    assert _threads("import descentlab") == (1, "None")
    # a caller's choice is kept, and so is a pool numpy started first
    assert _threads("import descentlab", OPENBLAS_NUM_THREADS="2") == (2, "2")
    assert _threads("import numpy; import descentlab") == (pool, "None")


@pytest.mark.parametrize("argv, draws", [
    (["run", "--objective", "quartic:[[0.25]]", "--alpha", "0.1", "--tol", "0",
      "--max-iters", "200", "--x0", "0.6"], False),
    (["run", "--objective", "nesterov", "--x0", "0.5,0.3"], True),
])
def test_run_loads_numpy_random_only_for_the_search_of_a_settled_run(argv, draws):
    # numpy.random, and the secrets and OpenSSL modules it loads, cost a
    # fresh process about 5 MB of peak memory
    code = ("import sys, contextlib, io; from descentlab.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0\n"
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == f"{draws}\n"


def test_a_cli_run_loads_no_dataclasses():
    # the report records are plain classes: building them with the dataclass
    # decorator cost every fresh process about 12 ms of import
    argv = ["run", "--objective", "nesterov", "--x0", "0.5,0.3"]
    code = ("import sys, contextlib, io; from descentlab.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0\n"
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("jobs", [[], ["--n-jobs", "2"]])
def test_a_serial_cli_census_loads_no_thread_pool(jobs):
    # one part is labelled with the builtin map: importing concurrent.futures
    # for a pool would cost every such process about 4-5 ms
    argv = ["montecarlo", "--objective", "nesterov", "--trials", "2000", *jobs]
    code = ("import sys, contextlib, io; from descentlab.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0\n"
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "False\n"
