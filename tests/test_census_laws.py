"""The nesterov census against closed forms, trial by trial.

On f = x**2/2 + y**4/4 - y**2/2 the step is x -> (1 - alpha) x and
y -> y (1 + alpha - alpha y**2), each mode reading only itself.  For
alpha < 1/11, the step-size certificate on the [-2, 2]**2 box, the y-map is
increasing on [-2, 2], maps it into itself and keeps the sign of y.  So:

- every trial with y0 > 0 ends at the minimum (0, 1) and every one with
  y0 < 0 at (0, -1);
- the x-mode contracts by exactly 1 - alpha, and on these censuses the
  y-mode settles first, so a trial stops at iterate
  floor(log(tol / |x0|) / log(1 - alpha)) + 1.

Both laws are checked on the library's report and on the CLI's
``trials.csv``, at alpha = 0.09 and seeds 0, 1 and 2.

The saddle's stable set is the x-axis: y = 0 stays 0 and any other y
leaves it.  So a stable-set grid point converges to the saddle exactly
when its y is 0, and every converged point lies on the stable subspace.
This is checked on ``sample_local_stable_set`` and on the CLI's
``stable_set.csv``, on the default grid and on one other.

Near the saddle a start dwells for a time set by |y0|: while |y| <= r the
y-mode grows by a factor between 1 + alpha - alpha r**2 and 1 + alpha, so
the first iterate outside the cube [-r, r]**2 is bracketed by the
logarithms of r / |y0| to those two bases (Du et al., arXiv:1705.10412,
study this slowdown).  This is checked on ``run`` from starts with |y0|
from 1e-1 down to 1e-12 and from uniform starts in the cube.

On a diagonal quadratic the step is x -> (1 - alpha lambda) x, mode by
mode, and the closed-form iterate applies those factors as repeated
products, as ``engine.closed_form_quadratic`` does; the alphas and
lambdas below are dyadic.  So a census trial stops at the first iterate
k whose gradient norm is at most tol, whose norm reaches the divergence
radius or which is the cap, in that order; it is labelled with the
origin's record, Diverged or Unresolved accordingly.  This is checked
trial by trial on seven quadratics, two of them 20-D, through the
library and the CLI.  The stable set of the saddle at the origin of ``[1, -1]`` and
``[1, -0.5]`` is the line where the negative mode is 0, as on nesterov.
"""

import csv
import json

import numpy as np
import pytest

from descentlab import (GradientMap, NesterovExample, StopPolicy, alpha_from_theta,
                        find_critical_points, monte_carlo, parse_objective, run,
                        sample_local_stable_set)
from descentlab import experiments
from descentlab.cli import THETA_DEFAULT, main
from descentlab.engine import DEFAULT_POLICY
from descentlab.experiments import BASIN_TOL

ALPHA = 0.09
TRIALS = 10_000


def _minimum_indices(locations):
    """The indices of the records at (0, 1) and at (0, -1)."""
    return [next(i for i, location in enumerate(locations)
                 if np.allclose(location, target, rtol=0.0, atol=1e-8))
            for target in ([0.0, 1.0], [0.0, -1.0])]


def _check_laws(x0, labels, iterations, locations):
    upper, lower = _minimum_indices(locations)
    assert np.count_nonzero(x0[:, 1] == 0.0) == 0  # no start on the saddle's stable line
    assert all(label == upper for label in labels[x0[:, 1] > 0.0])
    assert all(label == lower for label in labels[x0[:, 1] < 0.0])
    law = np.floor(np.log(DEFAULT_POLICY.tol / np.abs(x0[:, 0])) / np.log(1.0 - ALPHA)) + 1
    assert np.array_equal(iterations, law)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_library_census_follows_the_closed_forms(seed):
    report = monte_carlo(NesterovExample(), ALPHA, TRIALS, seed=seed)
    _check_laws(report.trial_x0, np.array(report.trial_labels, dtype=object),
                report.trial_iterations, [record.location for record in report.records])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_cli_census_writes_trials_that_follow_the_closed_forms(tmp_path, capsys, seed):
    argv = ["montecarlo", "--objective", "nesterov", "--alpha", str(ALPHA),
            "--trials", str(TRIALS), "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "trials.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == TRIALS
    x0 = np.array([[float(row["x0_1"]), float(row["x0_2"])] for row in rows])
    labels = np.array([int(row["label"]) for row in rows])
    iterations = np.array([int(row["iterations"]) for row in rows])
    _check_laws(x0, labels, iterations,
                [point["location"] for point in report["critical_points"]])


# (radius, grid, grid points in the disc): the CLI's default grid, whose
# golden has 41 converged points of 1257, and one more
GRIDS = [(0.5, 41, 1257), (1.5, 31, 709)]


def _check_library_stable_set(objective, radius, grid, n_points):
    """The stable set of the saddle at the origin is the line y = 0."""
    saddle = next(record for record in find_critical_points(objective)
                  if record.is_strict_saddle)
    gmap = GradientMap(objective, alpha_from_theta(objective, THETA_DEFAULT))
    sample = sample_local_stable_set(gmap, saddle, radius=radius, grid=grid)
    assert np.array_equal(saddle.location, [0.0, 0.0])
    assert len(sample.points) == n_points
    assert np.array_equal(sample.converged, sample.points[:, 1] == 0.0)
    assert np.count_nonzero(sample.converged) == grid  # the whole middle row
    assert sample.max_subspace_distance == 0.0


def _check_cli_stable_set(tmp_path, capsys, spec, radius, grid, n_points):
    argv = ["stable-set", "--objective", spec, "--radius", str(radius),
            "--grid", str(grid), "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "stable_set_summary.json").read_text())
    with open(tmp_path / "stable_set.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == summary["n_points"] == n_points
    for row in rows:
        assert row["converged_to_saddle"] == ("1" if float(row["x_2"]) == 0.0 else "0"), row
    assert summary["n_converged"] == grid
    assert summary["max_subspace_distance"] == 0.0


@pytest.mark.parametrize("radius, grid, n_points", GRIDS)
def test_a_library_stable_set_is_the_saddles_x_axis(radius, grid, n_points):
    _check_library_stable_set(NesterovExample(), radius, grid, n_points)


@pytest.mark.parametrize("radius, grid, n_points", GRIDS)
def test_a_cli_stable_set_writes_the_saddles_x_axis(tmp_path, capsys, radius, grid, n_points):
    _check_cli_stable_set(tmp_path, capsys, "nesterov", radius, grid, n_points)


SADDLE_QUADRATICS = ["diagonal_quadratic:[1,-1]", "diagonal_quadratic:[1,-0.5]"]


@pytest.mark.parametrize("radius, grid, n_points", GRIDS)
@pytest.mark.parametrize("spec", SADDLE_QUADRATICS)
def test_a_library_stable_set_of_a_quadratic_saddle_is_its_positive_mode(
    spec, radius, grid, n_points
):
    _check_library_stable_set(parse_objective(spec), radius, grid, n_points)


@pytest.mark.parametrize("radius, grid, n_points", GRIDS)
@pytest.mark.parametrize("spec", SADDLE_QUADRATICS)
def test_a_cli_stable_set_of_a_quadratic_saddle_is_its_positive_mode(
    tmp_path, capsys, spec, radius, grid, n_points
):
    _check_cli_stable_set(tmp_path, capsys, spec, radius, grid, n_points)


@pytest.mark.parametrize("max_iters", [200, 230])
def test_a_stable_set_converges_where_a_census_from_its_points_lands_at_the_saddle(
    tmp_path, capsys, monkeypatch, max_iters
):
    # these caps stop the x-axis runs within BASIN_TOL of the saddle but
    # before the gradient certificate, which only 1 and 21 of them reach;
    # a grid point converges by the census's rule, which needs no certificate
    argv = ["stable-set", "--objective", "nesterov", "--grid", "41",
            "--max-iters", str(max_iters), "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "stable_set_summary.json").read_text())
    with open(tmp_path / "stable_set.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    points = np.array([[float(row["x_1"]), float(row["x_2"])] for row in rows])
    converged = [row["converged_to_saddle"] == "1" for row in rows]
    assert summary["n_converged"] == sum(converged) == 41
    assert converged == (points[:, 1] == 0.0).tolist()
    # a census from the same starts, with the same step and cap
    objective = NesterovExample()
    monkeypatch.setattr(experiments, "_box_samples", lambda *args, **kwargs: points)
    report = monte_carlo(objective, alpha_from_theta(objective, THETA_DEFAULT), len(points),
                         seed=0, policy=StopPolicy(max_iters=max_iters))
    saddle = next(i for i, record in enumerate(report.records) if record.is_strict_saddle)
    assert [label == saddle for label in report.trial_labels] == converged


# (objective, alpha): every trial of the first two and of the indefinite
# 20-D one diverges along a negative mode, every trial of a strongly
# convex one ends at the origin; both 20-D ones sum their row norms
# pairwise (zoo._PAIRWISE_FROM = 8)
LAMBDAS_20 = [1.0, 0.5, 0.25, 0.75, 1.5] * 4
QUADRATICS = [
    ("diagonal_quadratic:[1,-1]", 0.25),
    ("diagonal_quadratic:[1,-0.5]", 0.5),
    ("strongly_convex_quadratic:[1,0.5]", 0.5),
    ("strongly_convex_quadratic:[1,0.25]", 0.75),
    ("diagonal_quadratic:[1,-1,0.5]", 0.25),
    ("diagonal_quadratic:" + json.dumps([-1.0, -0.5, -0.25] + LAMBDAS_20[3:]), 0.25),
    ("strongly_convex_quadratic:" + json.dumps(LAMBDAS_20), 0.5),
]
QUADRATIC_TRIALS = 2000


def _closed_form_stops(lambdas, alpha, x0):
    """Each start's label and stop iterate, read off the closed-form iterates.

    Iterate k is (1 - alpha lambda)**k x0, applied as k repeated products,
    and its gradient lambda x_k; a trial stops at the first k at which the
    gradient norm is at most tol (label 0, the origin's record, if the
    iterate lies within BASIN_TOL of it, else Unresolved), the norm is at
    least the divergence radius (Diverged) or k is the cap (Unresolved).
    """
    policy = DEFAULT_POLICY
    factors = 1.0 - alpha * np.asarray(lambdas)
    labels = np.empty(len(x0), dtype=object)
    iterations = np.full(len(x0), -1)
    active, x = np.arange(len(x0)), np.array(x0)
    for k in range(policy.max_iters + 1):
        converged = np.sqrt(np.sum((lambdas * x) ** 2, axis=-1)) <= policy.tol
        diverged = ~converged & (np.sqrt(np.sum(x * x, axis=-1)) >= policy.divergence_radius)
        stopped = converged | diverged | (k == policy.max_iters)
        label = np.full(active.size, "Unresolved", dtype=object)
        label[diverged] = "Diverged"
        label[converged & (np.max(np.abs(x), axis=-1) <= BASIN_TOL)] = 0
        labels[active[stopped]] = label[stopped]
        iterations[active[stopped]] = k
        active, x = active[~stopped], factors * x[~stopped]
        if not active.size:
            break
    return labels, iterations


def _expected_label(spec):
    return "Diverged" if spec.startswith("diagonal") else 0


@pytest.mark.parametrize("spec, alpha", QUADRATICS)
def test_a_library_census_of_a_quadratic_follows_the_closed_form(spec, alpha):
    objective = parse_objective(spec)
    report = monte_carlo(objective, alpha, QUADRATIC_TRIALS, seed=0)
    labels, iterations = _closed_form_stops(objective.lambdas, alpha, report.trial_x0)
    assert set(labels) == {_expected_label(spec)}
    assert report.trial_labels == labels.tolist()
    assert np.array_equal(report.trial_iterations, iterations)


@pytest.mark.parametrize("spec, alpha", QUADRATICS)
def test_a_cli_census_of_a_quadratic_writes_trials_that_follow_the_closed_form(
    tmp_path, capsys, spec, alpha
):
    argv = ["montecarlo", "--objective", spec, "--alpha", str(alpha),
            "--trials", str(QUADRATIC_TRIALS), "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    with open(tmp_path / "trials.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == QUADRATIC_TRIALS
    objective = parse_objective(spec)
    x0 = np.array([[float(row[f"x0_{i + 1}"]) for i in range(objective.dimension)]
                   for row in rows])
    labels, iterations = _closed_form_stops(objective.lambdas, alpha, x0)
    assert [row["label"] for row in rows] == [str(label) for label in labels]
    assert [int(row["iterations"]) for row in rows] == iterations.tolist()


def test_the_dwell_time_at_the_saddle_is_bracketed_by_the_y_modes_growth():
    r = 0.5
    gmap = GradientMap(NesterovExample(), ALPHA)
    # tol 0: with any positive tolerance a start as close as (0, 1e-12)
    # would stop at once on the gradient test
    policy = StopPolicy(tol=0.0, max_iters=600)
    starts = [(x0, sign * 10.0 ** -j) for j in range(1, 13) for sign in (1.0, -1.0)
              for x0 in (0.0, 0.3, -0.45)]
    starts += np.random.default_rng(0).uniform(-r, r, size=(200, 2)).tolist()
    assert len(starts) == 272
    for x0, y0 in starts:
        outside = np.max(np.abs(run(gmap, [x0, y0], policy).iterates), axis=1) > r
        assert outside.any(), (x0, y0)
        k = int(np.argmax(outside))
        lower = np.floor(np.log(r / abs(y0)) / np.log(1.0 + ALPHA))
        upper = np.ceil(np.log(r / abs(y0)) / np.log(1.0 + ALPHA - ALPHA * r * r)) + 1
        assert lower <= k <= upper, (x0, y0, k)
