"""The benchmark's workloads: inputs from a seed, the command, and the output checks.

Each workload turns the benchmark seed into its inputs, names the
arguments of the program it runs, and checks the files that run leaves in
its output directory.  A check returns a digest of the deterministic
outputs (equal digests mean byte-identical files) and a list of problems;
an empty list means the output is correct.

``kind`` says what runs: ``cli`` is ``python3 -m descentlab <args>`` and
``geometry`` is ``python3 bench/geometry.py <args>``.  ``work`` is the
number of units one invocation completes (trials, steps or inversions),
the numerator of the ``work_per_s`` metric.  ``setup`` is the code a fresh
interpreter runs, after ``import descentlab as dl``, to construct the
workload's objectives and gradient maps; the benchmark times it as
``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

CENSUS_TRIALS = 10_000
BASIN_RANGE = (4700, 5300)  # acceptance criterion 2, per minimum
LONG_RUN_STEPS = 10_000
GEOMETRY_SAMPLES = 1000
GEOMETRY_OBJECTIVES = 4
RESIDUAL_BOUND = 1e-8  # acceptance criterion 4
LOCATION_TOL = 1e-8  # found critical point vs the closed-form one, infinity norm


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Census:
    """CLI ``montecarlo`` on the Nesterov example, 10k trials, serial."""

    name = "census"
    kind = "cli"
    work = CENSUS_TRIALS
    threads = 2  # the traced run repeats the Monte Carlo call on this many threads
    setup = 'o = dl.parse_objective("nesterov"); dl.GradientMap(o, dl.alpha_from_theta(o, 0.99))'

    def __init__(self, seed: int):
        self.mc_seed = random.Random(f"census:{seed}").randrange(2**31)

    def args(self, out) -> list:
        return ["montecarlo", "--objective", "nesterov", "--trials", str(CENSUS_TRIALS),
                "--seed", str(self.mc_seed), "--out", out]

    def check(self, out):
        path = os.path.join(out, "report.json")
        report = _load(path)
        problems = []
        counts = {int(k): v for k, v in report["basin_counts"].items()}
        if report["saddle_hits"] != 0:
            problems.append(f"saddle_hits = {report['saddle_hits']}, expected 0")
        minima = [p["index"] for p in report["critical_points"] if p["classification"] == "LocalMin"]
        if len(minima) != 2:
            problems.append(f"found {len(minima)} minima, expected 2")
        lo, hi = BASIN_RANGE
        for i in minima:
            if not lo <= counts[i] <= hi:
                problems.append(f"minimum {i} basin count {counts[i]} outside [{lo}, {hi}]")
        total = sum(counts.values()) + report["diverged"] + report["left_box"] + report["unresolved"]
        if report["n_trials"] != CENSUS_TRIALS or total != CENSUS_TRIALS:
            problems.append(f"counts sum to {total} for {report['n_trials']} trials, expected {CENSUS_TRIALS}")
        return _sha256(path), problems


class LongRun:
    """CLI ``run`` on the flat 1-D quartic for exactly 10k steps."""

    name = "long_run"
    kind = "cli"
    work = LONG_RUN_STEPS
    threads = 0
    setup = 'o = dl.parse_objective("quartic:[[0.25]]"); dl.GradientMap(o, 0.1)'

    def __init__(self, seed: int):
        rng = random.Random(f"long_run:{seed}")
        # any start in the box but off the origin takes every step with tol 0
        self.x0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.0)
        self.search_seed = rng.randrange(2**31)

    def args(self, out) -> list:
        return ["run", "--objective", "quartic:[[0.25]]", "--alpha", "0.1", "--tol", "0",
                "--max-iters", str(LONG_RUN_STEPS), "--x0", repr(self.x0),
                "--seed", str(self.search_seed), "--out", out]

    def check(self, out):
        summary_path = os.path.join(out, "summary.json")
        csv_path = os.path.join(out, "trajectory.csv")
        summary = _load(summary_path)
        problems = []
        if summary["stop_reason"] != "MaxIters":
            problems.append(f"stop_reason {summary['stop_reason']}, expected MaxIters")
        if summary["n_steps"] != LONG_RUN_STEPS:
            problems.append(f"n_steps {summary['n_steps']}, expected {LONG_RUN_STEPS}")
        with open(csv_path, "rb") as handle:
            rows = sum(1 for _ in handle) - 1
        if rows != LONG_RUN_STEPS + 1:
            problems.append(f"trajectory.csv has {rows} data rows, expected {LONG_RUN_STEPS + 1}")
        return _sha256(summary_path) + _sha256(csv_path), problems


class Geometry:
    """bench/geometry.py on the four zoo objectives at alpha = 0.5/L."""

    name = "geometry"
    kind = "geometry"
    work = GEOMETRY_OBJECTIVES * GEOMETRY_SAMPLES  # one inversion per round-trip sample
    threads = 0
    setup = ("import geometry\n"
             "for o in geometry.objectives(): dl.GradientMap(o, 0.5 / o.lipschitz_bound())")

    def __init__(self, seed: int):
        self.seed = random.Random(f"geometry:{seed}").randrange(2**31)

    def args(self, out) -> list:
        return ["--seed", str(self.seed), "--samples", str(GEOMETRY_SAMPLES), "--out", out]

    def check(self, out):
        path = os.path.join(out, "result.json")
        results = _load(path)
        problems = []
        if len(results) != GEOMETRY_OBJECTIVES:
            problems.append(f"{len(results)} objectives in result.json, expected {GEOMETRY_OBJECTIVES}")
        for entry in results:
            name = entry["objective"]
            trip = entry["roundtrip"]
            if trip["n_samples"] != GEOMETRY_SAMPLES:
                problems.append(f"{name}: {trip['n_samples']} round-trip samples")
            for key in ("max_forward_residual", "max_backward_residual"):
                if not trip[key] <= RESIDUAL_BOUND:
                    problems.append(f"{name}: {key} {trip[key]} > {RESIDUAL_BOUND}")
            if entry["injectivity"]["violations"] != 0:
                problems.append(f"{name}: {entry['injectivity']['violations']} injectivity violations")
            found, known = entry["found"], entry["known"]
            if len(found) != len(known):
                problems.append(f"{name}: found {len(found)} critical points, expected {len(known)}")
            for point in known:
                if not any(
                    f["classification"] == point["classification"]
                    and max(abs(a - b) for a, b in zip(f["location"], point["location"])) <= LOCATION_TOL
                    for f in found
                ):
                    problems.append(f"{name}: no {point['classification']} found at {point['location']}")
            for record_dim, subspace_dim in entry["saddle_stable_dimensions"]:
                if record_dim != subspace_dim:
                    problems.append(f"{name}: stable subspace has dimension {subspace_dim}, record says {record_dim}")
        return _sha256(path), problems


WORKLOADS = {w.name: w for w in (Census, LongRun, Geometry)}
