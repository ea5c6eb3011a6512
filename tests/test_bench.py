"""The benchmark's workloads, each run once as the benchmark runs it.

``bench/`` is only read here.  Each workload of ``bench/workloads.py``
runs its own command once at bench seed 1, with ``src`` and ``bench`` on
``PYTHONPATH``, and its output must pass that workload's ``check``.  The
census run under ``bench/tracer.py --threads 2`` must then repeat its
Monte Carlo call on two threads and match the report the CLI wrote.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
# the program each workload kind runs, as bench/workloads.py names it
PROGRAMS = {"cli": ["-m", "descentlab"], "geometry": [str(BENCH / "geometry.py")]}


def _run(args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_bench_workload_passes_its_own_check(name, tmp_path):
    workload = WORKLOADS[name](1)
    out = str(tmp_path / "out")
    done = _run(PROGRAMS[workload.kind] + workload.args(out))
    assert done.returncode == 0, done.stderr
    _, problems = workload.check(out)
    assert problems == []


def test_the_traced_census_matches_its_report_on_two_threads(tmp_path):
    census = WORKLOADS["census"](1)
    trace = tmp_path / "trace.json"
    done = _run([str(BENCH / "tracer.py"), "--out", str(trace), "--threads", "2", "cli",
                 *census.args(str(tmp_path / "out"))])
    assert done.returncode == 0, done.stderr
    _, problems = census.check(str(tmp_path / "out"))
    assert problems == []
    assert json.loads(trace.read_text())["threads"]["report_matches"] is True
