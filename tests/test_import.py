"""Importing descentlab: its public names, the BLAS pool and the modules it leaves behind."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import descentlab
from descentlab.cli import COMMANDS

# the modules whose __all__ the package re-exports
PUBLIC_MODULES = ["critical", "engine", "errors", "experiments", "inverse", "jacobi", "zoo"]

THREADS = "import os; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"

COUNTS_THREADS = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc on a Linux machine with 2 or more cores",
)


def _fresh(code):
    """The stdout of ``code`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True).stdout


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
    # numpy.random costs a fresh process about 2 MB of peak memory (2
    # cores, Python 3.11.7, numpy 2.4.6), and 3.5 MB more if it loads
    # secrets and OpenSSL (see the tests below)
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


# a small input of each command, and whether it draws random starts
COMMAND_INPUTS = {
    "run": (["--objective", "nesterov", "--x0", "0.5,0.3"], True),
    "montecarlo": (["--objective", "nesterov", "--trials", "200"], True),
    "classify": (["--objective", "nesterov"], True),
    "stable-set": (["--objective", "nesterov", "--grid", "11"], True),
    "invert": (["--objective", "nesterov", "--y", "0.1,0.2"], False),
    "rates": (["--objective", "nesterov", "--x0", "0.5,0.3"], True),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_cli_run_loads_no_openssl_next_to_a_bare_interpreter(command, tmp_path):
    # the artifacts' temporary names come from os.urandom, and numpy.random
    # is imported next to a stand-in secrets module (engine._default_rng):
    # the secrets module, or hashlib, would load OpenSSL, a few ms and
    # about 4 MB of a fresh process.  Each command draws where it can.
    args, draws = COMMAND_INPUTS[command]
    argv = [command, *args, "--out", str(tmp_path)]
    probe = "import sys; print(sorted({'_hashlib', 'secrets'} & set(sys.modules)))"
    code = ("import contextlib, io, sys; from descentlab.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0\n"
            "print('numpy.random' in sys.modules)\n" + probe)
    assert _fresh(code) == f"{draws}\n" + _fresh(probe)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(COMMANDS[command].artifacts)


# a first draw, the critical-point search's, which imports numpy.random
DRAW = "import descentlab as dl; dl.find_critical_points(dl.parse_objective('nesterov'))\n"


def test_after_a_seeded_draw_secrets_is_the_real_module():
    code = (DRAW + "import random, sys; print('secrets' in sys.modules)\n"
            "import secrets, numpy.random.bit_generator as bit_generator\n"
            "print(secrets.__file__.endswith('secrets.py'), len(secrets.token_hex(4)))\n"
            "print(bit_generator.randbits.__func__ is random.SystemRandom.getrandbits)")
    assert _fresh(code) == "False\nTrue 8\nTrue\n"


def test_unseeded_generators_still_draw_from_os_entropy():
    code = (DRAW + "import numpy as np\n"
            "a, b = (np.random.default_rng().integers(2**63, size=4) for _ in range(2))\n"
            "print(bool((a != b).all()))")
    assert _fresh(code) == "True\n"


@pytest.mark.parametrize("first", ["import secrets", "import numpy.random"])
def test_a_caller_who_loaded_secrets_or_numpy_random_first_gets_no_stand_in(first):
    code = (f"{first}\n" + DRAW + "import secrets, sys, numpy.random.bit_generator as bg\n"
            "print(bg.randbits is secrets.randbits, secrets.__file__.endswith('secrets.py'))")
    assert _fresh(code) == "True True\n"


# a finder that runs ``action`` when numpy.random is imported, then lets the import go on
IMPORT_HOOK = """\
import sys
class Hook:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy.random":
            {action}
sys.meta_path.insert(0, Hook())
"""


@pytest.mark.parametrize("action, after", [
    # the import fails: the stand-in goes, and the error reaches the caller
    ("raise ImportError('refused')", "ImportError ['refused'] none"),
    # another thread's first draw put its own stand-in in place meanwhile
    ("sys.modules['secrets'] = OTHER", "NoneType [] other"),
])
def test_the_stand_in_is_removed_only_if_it_is_still_in_place(action, after):
    code = IMPORT_HOOK.format(action=action) + """\
import random, types
OTHER = types.ModuleType("secrets")
OTHER.randbits = random.SystemRandom().getrandbits
from descentlab.engine import _default_rng
try:
    _default_rng(0)
    error = None
except ImportError as exc:
    error = exc
left = sys.modules.get("secrets")
print(type(error).__name__, list(getattr(error, "args", [])),
      "none" if left is None else "other" if left is OTHER else "stand-in")
"""
    assert _fresh(code) == after + "\n"


def test_two_first_censuses_at_once_match_the_serial_report():
    # the first draw of two threads at once: each may see or replace the
    # other's stand-in, and neither may leave one behind
    code = """\
import json, sys, threading
import descentlab as dl
sys.setswitchinterval(1e-6)
objective = dl.parse_objective("nesterov")
alpha = dl.alpha_from_theta(objective, 0.5)
barrier = threading.Barrier(2)
reports = [None, None]
def census(i):
    barrier.wait()
    reports[i] = json.dumps(dl.monte_carlo(objective, alpha, n_trials=500, seed=3).to_dict())
threads = [threading.Thread(target=census, args=(i,)) for i in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print([thread.is_alive() for thread in threads], sorted({"_hashlib", "secrets"} & set(sys.modules)))
serial = json.dumps(dl.monte_carlo(objective, alpha, n_trials=500, seed=3).to_dict())
print(reports == [serial, serial])
"""
    for _ in range(3):
        assert _fresh(code) == "[False, False] []\nTrue\n"
