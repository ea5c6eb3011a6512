"""descentlab benchmark: one workload, end to end or traced, with output checks.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; it benchmarks that checkout's ``src``
tree (descentlab need not be installed).  Every invocation of the program
is a fresh subprocess.  ``--trace 0`` times untraced invocations within
``--seconds``, each bracketed by runs of a fixed reference task
(bench/reference.py), and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics.  Each
invocation's outputs are checked for correctness and, across repeats of
one seed, for byte-identical results; a failed check counts in ``failed``
and makes ``correct`` false.  The last line of stdout is the JSON result;
details (every repeat, provenance) go to ``.bench_out/`` in the checkout.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7  # fresh interpreters per run for setup_s, at least, after one warm-up
MIN_REPEATS = 3  # untraced invocations per end-to-end run, at least
MIN_TRACED = 2  # untraced + traced pairs per traced run, at least
CHILD_TIMEOUT_S = 120.0

SETUP_PROBE = """\
import time
start = time.perf_counter()
import descentlab as dl
{setup}
print(time.perf_counter() - start)
"""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [SRC, BENCH_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def invoke(cmd, log_dir, env):
    """Run cmd to completion; return (exit status, wall seconds, peak RSS in MB)."""
    with open(os.path.join(log_dir, "stdout"), "wb") as out, \
            open(os.path.join(log_dir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage, hence its peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stderr_tail(log_dir, lines=5) -> str:
    with open(os.path.join(log_dir, "stderr"), encoding="utf-8", errors="replace") as handle:
        return "".join(handle.readlines()[-lines:]).strip()


class Runner:
    """Runs and checks invocations of one workload in a working directory."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.env = child_env()
        self.reference = None  # digest of the first good outputs
        self.reference_counts = None  # exact per-layer counts of the first traced run
        self.count = 0

    def _command(self, out, trace_out=None):
        w = self.workload
        if trace_out is not None:
            head = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), "--out", trace_out]
            if w.threads:
                head += ["--threads", str(w.threads)]
            return head + [w.kind] + w.args(out)
        if w.kind == "cli":
            return [sys.executable, "-m", "descentlab"] + w.args(out)
        return [sys.executable, os.path.join(BENCH_DIR, "geometry.py")] + w.args(out)

    def once(self, traced=False) -> dict:
        """One invocation: its wall time, peak RSS, problems and (if traced) trace summary."""
        self.count += 1
        rep_dir = os.path.join(self.workdir, f"rep{self.count}")
        os.makedirs(rep_dir)
        out = os.path.join(rep_dir, "out")
        trace_out = os.path.join(rep_dir, "trace.json") if traced else None
        status, wall, rss = invoke(self._command(out, trace_out), rep_dir, self.env)
        rep = {"traced": traced, "status": status, "wall_s": wall, "peak_rss_mb": rss, "problems": []}
        problems = rep["problems"]
        if status != 0:
            problems.append(f"exit status {status}: {stderr_tail(rep_dir)}")
        else:
            try:
                digest, found = self.workload.check(out)
                problems += found
                if traced:
                    with open(trace_out, encoding="utf-8") as handle:
                        rep["trace"] = json.load(handle)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                if self.reference is None:
                    self.reference = digest
                elif digest != self.reference:
                    problems.append("outputs differ from the first invocation of this seed")
                if traced:
                    problems += self._check_trace(rep["trace"])
        shutil.rmtree(rep_dir)
        for problem in problems:
            print(f"[{self.workload.name} #{self.count}] FAILED: {problem}", file=sys.stderr)
        return rep

    def _check_trace(self, trace) -> list:
        problems = []
        if self.reference_counts is None:
            self.reference_counts = trace["counts"]
        elif trace["counts"] != self.reference_counts:
            changed = sorted(k for k in trace["counts"] if trace["counts"][k] != self.reference_counts.get(k))
            problems.append(f"per-layer counts differ between traced runs: {changed}")
        threads = trace.get("threads")
        if threads is not None and not threads["report_matches"]:
            problems.append(f"report.json with n_jobs={threads['n_jobs']} differs from serial")
        return problems

    def reference_time(self) -> float:
        """Wall seconds of one run of the reference task."""
        self.count += 1
        rep_dir = os.path.join(self.workdir, f"rep{self.count}")
        os.makedirs(rep_dir)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "reference.py")]
        status, wall, _ = invoke(cmd, rep_dir, self.env)
        if status != 0:
            raise RuntimeError(f"reference task failed: {stderr_tail(rep_dir)}")
        shutil.rmtree(rep_dir)
        return wall

    def setup_time(self) -> float:
        cmd = [sys.executable, "-c", SETUP_PROBE.format(setup=self.workload.setup)]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])


def _median(values):
    if not values:
        return 0.0
    # exact counts repeat (the traced check enforces it); median_low keeps them integers
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _ratio(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def _repeat(step, minimum, seconds) -> None:
    """Call step() at least minimum times, then while another call fits in seconds."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


def end_to_end(runner, seconds):
    runner.setup_time()  # warm-up: the first interpreters may compile bytecode
    runner.reference_time()
    reps, setups = [], []
    references = [runner.reference_time()]

    def step():
        # each invocation is bracketed by two runs of the reference task and
        # divided by their mean, so the yardstick sees the host's speed just
        # before and just after it; the setup probe runs between them too
        rep = runner.once()
        references.append(runner.reference_time())
        rep["reference_s"] = statistics.fmean(references[-2:])
        reps.append(rep)
        setups.append(runner.setup_time())

    _repeat(step, MIN_REPEATS, seconds)
    while len(setups) < SETUP_REPEATS:
        setups.append(runner.setup_time())
    metrics = {
        "rel_wall": (_median([r["wall_s"] / r["reference_s"] for r in reps]), "ratio"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reps]), "MB"),
    }
    return reps, metrics, {"setup_s": setups}


def layer_metrics(trace) -> dict:
    """Per-layer metrics of one traced run, counts exact and times in seconds."""
    c, t = trace["counts"], trace["times"]
    threads = trace.get("threads") or {}
    return {
        "engine.run_s": t["engine.run_s"],
        "engine.run_us_per_step": _ratio(t["engine.run_s"], c["engine.steps"], 1e6),
        "engine.steps": c["engine.steps"],
        "engine.run_many_s": t["engine.run_many_s"],
        "engine.run_many_ns_per_trial_step": _ratio(t["engine.run_many_s"], c["engine.trial_steps"], 1e9),
        "engine.trial_steps": c["engine.trial_steps"],
        **{k: c[k] for k in c if k.startswith(("engine.iterations_", "engine.stop."))},
        "experiments.monte_carlo_s": t["experiments.monte_carlo_s"],
        "experiments.monte_carlo_self_s": t["experiments.monte_carlo_self_s"],
        "experiments.monte_carlo_n_jobs2_s": threads.get("monte_carlo_s", 0.0),
        "experiments.saddle_hits": c["experiments.saddle_hits"],
        "experiments.unresolved": c["experiments.unresolved"],
        **{k: c[k] for k in c if k.startswith("zoo.")},
        **{k: t[k] for k in t if k.startswith("zoo.")},
        "critical.find_critical_points_s": t["critical.find_critical_points_s"],
        **{k: c[k] for k in c if k.startswith("critical.")},
        "jacobi.eigh_calls": c["jacobi.eigh_calls"],
        "jacobi.eigh_us_per_call": _ratio(t["jacobi.eigh_s"], c["jacobi.eigh_calls"], 1e6),
        "inverse.roundtrip_check_s": t["inverse.roundtrip_check_s"],
        "inverse.invert_calls": c["inverse.invert_calls"],
        "inverse.invert_us_per_call": _ratio(t["inverse.invert_s"], c["inverse.invert_calls"], 1e6),
        "inverse.inner_iterations_mean": _ratio(c["inverse.inner_iterations"], c["inverse.invert_calls"]),
        "inverse.injectivity_check_s": t["inverse.injectivity_check_s"],
        "fileio.write_s": t["fileio.write_s"],
        "fileio.bytes_written": c["fileio.bytes_written"],
        "cli.main_self_s": t["cli.main_self_s"],
        **{k: t[k] for k in t if k.endswith(".self_s") and not k.startswith(("cli.", "zoo."))},
        "trace.spans": c["trace.spans"],
    }


METRIC_UNITS = {"_per_s": "1/s", "_s": "s", "_us_per_step": "us", "_ns_per_trial_step": "ns", "_us_per_call": "us",
                "_frac": "ratio", "bytes_written": "bytes"}


def _unit(name) -> str:
    return next((unit for suffix, unit in METRIC_UNITS.items() if name.endswith(suffix)), "count")


def traced(runner, seconds):
    reps = []
    _repeat(lambda: reps.extend([runner.once(), runner.once(traced=True)]), MIN_TRACED, seconds)
    untraced = [r for r in reps if not r["traced"]]
    traced_ok = [r for r in reps if r["traced"] and "trace" in r]
    per_rep = [layer_metrics(r["trace"]) for r in traced_ok]
    metrics = {name: (_median([m[name] for m in per_rep]), _unit(name))
               for name in (per_rep[0] if per_rep else {})}
    # the traced child's own post-processing (span reduction, threaded
    # census) is not tracing overhead on the workload
    traced_wall = _median([r["wall_s"] - r["trace"]["post_s"] for r in traced_ok])
    untraced_wall = _median([r["wall_s"] for r in untraced])
    metrics["trace.overhead_frac"] = (_ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    metrics["wall_s"] = (untraced_wall, _unit("wall_s"))
    metrics["work_per_s"] = (_ratio(runner.workload.work, untraced_wall), _unit("work_per_s"))
    return reps, metrics, {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "descentlab")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # exported checkouts carry no history; src_sha256 identifies the code
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one descentlab workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and the working tree removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "descentlab", "__init__.py")):
        print(f"error: no descentlab source tree under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance()}
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        runner = Runner(workload, workdir)
        measure = traced if args.trace else end_to_end
        reps, metrics, extra = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"]["loadavg_end"] = list(os.getloadavg())

    failed = sum(1 for r in reps if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(extra, repeats=[{k: v for k, v in r.items() if k != "trace"} for r in reps],
                  traces=[r["trace"] for r in reps if "trace" in r], result=result)
    with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
