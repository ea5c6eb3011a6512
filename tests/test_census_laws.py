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
"""

import csv
import json

import numpy as np
import pytest

from descentlab import (GradientMap, NesterovExample, alpha_from_theta, find_critical_points,
                        monte_carlo, sample_local_stable_set)
from descentlab.cli import THETA_DEFAULT, main
from descentlab.engine import DEFAULT_POLICY

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


@pytest.mark.parametrize("radius, grid, n_points", GRIDS)
def test_a_library_stable_set_is_the_saddles_x_axis(radius, grid, n_points):
    objective = NesterovExample()
    saddle = next(record for record in find_critical_points(objective)
                  if record.is_strict_saddle)
    gmap = GradientMap(objective, alpha_from_theta(objective, THETA_DEFAULT))
    sample = sample_local_stable_set(gmap, saddle, radius=radius, grid=grid)
    assert np.array_equal(saddle.location, [0.0, 0.0])
    assert len(sample.points) == n_points
    assert np.array_equal(sample.converged, sample.points[:, 1] == 0.0)
    assert np.count_nonzero(sample.converged) == grid  # the whole middle row
    assert sample.max_subspace_distance == 0.0


@pytest.mark.parametrize("radius, grid, n_points", GRIDS)
def test_a_cli_stable_set_writes_the_saddles_x_axis(tmp_path, capsys, radius, grid, n_points):
    argv = ["stable-set", "--objective", "nesterov", "--radius", str(radius),
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
