"""Span tracer for the benchmark's traced runs.

``Tracer.install()`` wraps the public functions and public methods of each
descentlab layer module and patches every name that refers to them, in the
module that looks the name up (``descentlab.experiments.run_many``,
``descentlab.cli.run``, the package namespace, ...).  Each call records a
span: name, parent span, start and end.  Spans stay in memory; at the end
``layer_summary()`` reduces them to per-layer counts and times.  A span's
self time is its duration minus the durations of its child spans.
``Tracer.restore()`` puts every patched name back.  The library itself is
not modified.

Run as a script, this file is the traced child process of the benchmark:

    PYTHONPATH=src python3 bench/tracer.py --out trace.json cli montecarlo ...
    PYTHONPATH=src python3 bench/tracer.py --out trace.json geometry --seed 3 ...

``cli`` runs ``descentlab.cli.main`` on the remaining arguments and
``geometry`` runs ``bench/geometry.py``.  ``--threads N`` (census only)
then repeats the Monte Carlo call untraced with ``n_jobs=N`` and compares
its report with the one the CLI wrote.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from array import array
from enum import Enum

LAYERS = ("cli", "experiments", "engine", "zoo", "critical", "jacobi", "inverse", "fileio")
STOP_REASONS = ("GradNormBelowTol", "Diverged", "MaxIters", "LeftDomainBox")
ZOO_METHODS = ("value", "gradient", "hessian", "contains")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not sorted_values:
        return 0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[rank - 1]


class Tracer:
    """Records spans around the public callables of descentlab's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = collections.Counter()
        self.iterations: list[int] = []
        self._local = threading.local()
        self._patched: list = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = _HOOKS.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                span_start[index] = start
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and patch all names bound to them."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"descentlab.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
                    for method, fn in vars(value).items():
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(value, method, self._wrap(fn, f"{layer}.{attr}.{method}"))
        for module in [m for n, m in sys.modules.items() if n == "descentlab" or n.startswith("descentlab.")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_names(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._patched]

    # -- reduction --------------------------------------------------------

    def layer_summary(self) -> dict:
        """Exact counts and self/inclusive times per layer and per callable."""
        n = len(self.span_name)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]

        calls = collections.Counter()
        inclusive = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_outer = dict.fromkeys(LAYERS, 0.0)  # spans not nested in their own layer
        child_calls = collections.Counter()  # (parent name, child name)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            name_id = self.span_name[i]
            name = self.names[name_id]
            own = durations[i] - child_time[i]
            calls[name] += 1
            inclusive[name] += durations[i]
            self_time[name] += own
            layer_self[layer_of[name_id]] += own
            parent = self.span_parent[i]
            parent_layer = layer_of[self.span_name[parent]] if parent >= 0 else None
            if parent_layer != layer_of[name_id]:
                layer_outer[layer_of[name_id]] += durations[i]
            if parent >= 0:
                child_calls[(self.names[self.span_name[parent]], name)] += 1

        def zoo(method, table, zero):
            # zoo spans are named per class, e.g. zoo.NesterovExample.gradient
            return sum((v for k, v in table.items()
                        if k.startswith("zoo.") and k.endswith("." + method)), zero)

        c = self.counters
        iterations = sorted(self.iterations)
        counts = {
            "engine.steps": c["steps"],
            "engine.trial_steps": c["trial_steps"],
            "engine.iterations_p50": _percentile(iterations, 50),
            "engine.iterations_p99": _percentile(iterations, 99),
            "engine.iterations_max": iterations[-1] if iterations else 0,
            **{f"engine.stop.{reason}": c["stop." + reason] for reason in STOP_REASONS},
            "experiments.saddle_hits": c["saddle_hits"],
            "experiments.unresolved": c["unresolved"],
            **{f"zoo.{m}_calls": zoo(m, calls, 0) for m in ZOO_METHODS},
            "critical.seeds": c["seeds"],
            "critical.seeds_dropped": c["seeds_dropped"],
            "critical.roots": c["roots"],
            "critical.newton_hessian_calls": sum(
                v for (parent, child), v in child_calls.items()
                if parent == "critical.find_critical_points"
                and child.startswith("zoo.") and child.endswith(".hessian")
            ),
            "jacobi.eigh_calls": calls["jacobi.eigh_jacobi"],
            "inverse.invert_calls": calls["inverse.invert"],
            "inverse.inner_iterations": c["inner_iterations"],
            "fileio.bytes_written": c["bytes_written"],
            "trace.spans": n,
        }
        times = {
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
            "cli.main_self_s": layer_self["cli"],
            "engine.run_s": inclusive["engine.run"],
            "engine.run_many_s": inclusive["engine.run_many"],
            "experiments.monte_carlo_s": inclusive["experiments.monte_carlo"],
            "experiments.monte_carlo_self_s": self_time["experiments.monte_carlo"],
            **{f"zoo.{m}_self_s": zoo(m, self_time, 0.0) for m in ZOO_METHODS},
            "critical.find_critical_points_s": inclusive["critical.find_critical_points"],
            "jacobi.eigh_s": inclusive["jacobi.eigh_jacobi"],
            "inverse.invert_s": inclusive["inverse.invert"],
            "inverse.roundtrip_check_s": inclusive["inverse.roundtrip_check"],
            "inverse.injectivity_check_s": inclusive["inverse.injectivity_margin_check"],
            "fileio.write_s": layer_outer["fileio"],
        }
        return {"counts": counts, "times": times}


# Hooks run after a traced call returns and read exact counts off its
# arguments or result.  They are keyed by span name.

def _on_run(tracer, args, kwargs, traj):
    tracer.counters["steps"] += traj.n_steps
    tracer.counters["stop." + traj.stop_reason.value] += 1


def _on_run_many(tracer, args, kwargs, batch):
    iterations = [int(k) for k in batch.iterations]
    tracer.counters["trial_steps"] += sum(iterations)
    tracer.iterations.extend(iterations)
    for reason in batch.stop_reasons:
        tracer.counters["stop." + reason.value] += 1


def _on_monte_carlo(tracer, args, kwargs, report):
    tracer.counters["saddle_hits"] += report.saddle_hits
    tracer.counters["unresolved"] += report.unresolved


def _on_find_critical_points(tracer, args, kwargs, records):
    tracer.counters["seeds"] += records.n_seeds
    tracer.counters["seeds_dropped"] += records.n_dropped
    tracer.counters["roots"] += len(records)


def _on_invert(tracer, args, kwargs, report):
    tracer.counters["inner_iterations"] += report.inner_iterations


def _on_write_text(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counters["bytes_written"] += len(text.encode("utf-8"))


_HOOKS = {
    "engine.run": _on_run,
    "engine.run_many": _on_run_many,
    "experiments.monte_carlo": _on_monte_carlo,
    "critical.find_critical_points": _on_find_critical_points,
    "inverse.invert": _on_invert,
    "fileio.atomic_write_text": _on_write_text,
}


def _threaded_census(cli_args, n_jobs):
    """Repeat the CLI's Monte Carlo call with n_jobs threads, untraced.

    Returns its wall time and whether its report equals the CLI's
    ``report.json`` byte for byte.
    """
    from descentlab import alpha_from_theta, monte_carlo, parse_objective
    from descentlab.cli import THETA_DEFAULT, build_parser

    opts = build_parser().parse_args(cli_args)
    objective = parse_objective(opts.objective)
    alpha = alpha_from_theta(objective, THETA_DEFAULT)
    start = time.perf_counter()
    report = monte_carlo(objective, alpha, n_trials=opts.trials, seed=opts.seed, n_jobs=n_jobs)
    elapsed = time.perf_counter() - start
    with open(os.path.join(opts.out, "report.json"), encoding="utf-8") as handle:
        serial = handle.read()
    return elapsed, json.dumps(report.to_dict(), indent=2) + "\n" == serial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload under the span tracer.")
    parser.add_argument("--out", required=True, help="where to write the trace summary JSON")
    parser.add_argument("--threads", type=int, default=0,
                        help="after a census, repeat it untraced with this many threads")
    parser.add_argument("kind", choices=("cli", "geometry"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    import descentlab.cli

    import geometry

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        if opts.kind == "cli":
            status = descentlab.cli.main(opts.args)
        else:
            status = geometry.main(opts.args)
    finally:
        workload_s = time.perf_counter() - start
        tracer.restore()
    post_start = time.perf_counter()
    summary = {"status": status, "workload_s": workload_s, **tracer.layer_summary()}
    if opts.threads:
        elapsed, match = _threaded_census(opts.args, opts.threads)
        summary["threads"] = {"n_jobs": opts.threads, "monte_carlo_s": elapsed, "report_matches": match}
    summary["post_s"] = time.perf_counter() - post_start
    with open(opts.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
