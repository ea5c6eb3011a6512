"""Statistical experiments: saddle avoidance, basin accounting, and rates.

The Monte Carlo driver runs trajectories from uniformly drawn starts and
assigns each limit to a critical-point basin.  The rate fitters extract
the contraction factor (linear regime) or decay exponent (power regime)
from a single trajectory, and the gradient-inequality checker certifies
the (a, m) pair those rates are predicted from.
"""

from __future__ import annotations

import math

import numpy as np

from .critical import _basin_codes, _check_records, _label_starts, find_critical_points
# run_many stays bound here, where the bench's tracer test looks it up
from .engine import (BatchResult, GradientMap, StopPolicy, Trajectory, _box_samples,
                     _check_policy, _row_norms, run_many)  # noqa: F401
from .errors import (ContractViolationError, InapplicableError, InsufficientDataError,
                     _check_count, _check_real)
from .fileio import Record, atomic_write_columns, plain
from .zoo import Objective, _as_box, _check_vector

__all__ = [
    "LojasiewiczCertificate", "MonteCarloReport", "PathLengthReport", "RateFit", "assign_basin",
    "best_rate_fit", "check_lojasiewicz", "fit_linear_rate", "fit_power_rate", "monte_carlo",
    "path_length_check", "rate_fits",
]

LABEL_DIVERGED = "Diverged"
LABEL_LEFT_BOX = "LeftBox"
LABEL_UNRESOLVED = "Unresolved"

BASIN_TOL = 1e-6
FIT_FLOOR = 100.0 * np.finfo(float).eps
# Trials of a 1-D or 2-D census, at most; a d-D census may have 2 *
# MAX_TRIALS // d, so its starts hold at most 2e7 coordinates (160 MB).
# Through the CLI a 2-D census peaked at 44 MB at 1e5 trials and 101 MB
# at 1e6: about 66 bytes a trial above 37 MB, so about 0.7 GB at this
# cap.  A 100-D census at its cap of 2e5 trials peaked at 346 MB, drawing
# the starts through one temporary array as large.  A larger census is
# refused before any work rather than running out of memory.
MAX_TRIALS = 10_000_000


def _label_table(records) -> list:
    """The label of each code of ``_basin_codes``."""
    return [*range(len(records)), LABEL_DIVERGED, LABEL_LEFT_BOX, LABEL_UNRESOLVED]


def assign_basin(traj: Trajectory, records, tol: float = BASIN_TOL):
    """Label a finished trajectory with the basin it landed in.

    Returns the index of the matching record, or one of the strings
    ``Diverged``, ``LeftBox``, ``Unresolved``.  ``records`` are read only
    when the trajectory settled (see ``_settled``): one that did not gets
    the same label for any records, even none.  Two records within
    ``tol`` of a settled final iterate raise an ambiguity error since that
    means the tolerance no longer separates the critical points.
    ``records`` that are not ``CriticalPointRecord``s of the trajectory's
    dimension are refused.
    """
    tol = _check_real(tol, "tol", "non-negative")
    records = _check_records(records, traj.iterates.shape[1])
    final = BatchResult(traj.final_x[None, :], traj.f_values[-1:], traj.grad_norms[-1:],
                        np.array([traj.n_steps]), [traj.stop_reason])
    return _label_table(records)[_basin_codes(final, records, tol)[0]]


class MonteCarloReport(Record):
    """Basin counts for a batch of uniformly initialized trajectories.

    ``basin_counts`` maps record index to count; together with the
    diverged, left-box, and unresolved counters it partitions the trials.
    ``saddle_hits`` counts trials that settled at a record whose minimum
    Hessian eigenvalue is negative (saddles and maxima both).  Per-trial
    arrays are kept for the CSV writers and for auditing single runs.
    """

    __slots__ = ("n_trials", "seed", "alpha", "init_box", "basin_counts", "diverged", "left_box",
                 "unresolved", "saddle_hits", "records", "trial_x0", "trial_labels",
                 "trial_iterations", "trial_final_grad_norm")
    _defaults = dict.fromkeys(("records", "trial_x0", "trial_labels", "trial_iterations",
                               "trial_final_grad_norm"))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.records is None:
            self.records = []
        if self.trial_labels is None:
            self.trial_labels = []

    def to_dict(self) -> dict:
        return plain({
            "n_trials": self.n_trials,
            "seed": self.seed,
            "alpha": self.alpha,
            "init_box": self.init_box,
            "basin_counts": {str(k): v for k, v in sorted(self.basin_counts.items())},
            "diverged": self.diverged,
            "left_box": self.left_box,
            "unresolved": self.unresolved,
            "saddle_hits": self.saddle_hits,
            "critical_points": [
                {"index": i, "location": rec.location, "classification": rec.classification,
                 "is_strict_saddle": rec.is_strict_saddle}
                for i, rec in enumerate(self.records)
            ],
        })

    def trials_to_csv(self, path) -> None:
        d = self.trial_x0.shape[1]
        header = (
            ["trial"]
            + [f"x0_{i + 1}" for i in range(d)]
            + ["label", "iterations", "final_grad_norm"]
        )
        columns = [np.arange(self.n_trials), *self.trial_x0.T, self.trial_labels,
                   self.trial_iterations, self.trial_final_grad_norm]
        atomic_write_columns(path, header, columns)

    def basins_to_csv(self, path) -> None:
        basins = sorted(self.basin_counts)
        columns = [
            [*map(str, basins), LABEL_DIVERGED, LABEL_LEFT_BOX, LABEL_UNRESOLVED],
            [*(self.records[i].classification.value for i in basins), "", "", ""],
            [*(int(self.basin_counts[i]) for i in basins),
             self.diverged, self.left_box, self.unresolved],
        ]
        atomic_write_columns(path, ["label", "classification", "count"], columns)


def monte_carlo(
    objective: Objective,
    alpha: float,
    n_trials: int,
    seed: int,
    init_box=None,
    records=None,
    policy: StopPolicy | None = None,
    basin_tol: float = BASIN_TOL,
    n_jobs: int = 1,
) -> MonteCarloReport:
    """Run n_trials uniform initializations and tally where they end up.

    The initialization box defaults to the objective's domain box and must
    lie inside it.  Critical-point records default to a fresh multistart
    search with its own fixed seed, so basin indices do not depend on the
    Monte Carlo seed; given ones that are not ``CriticalPointRecord``s of
    the objective's dimension are refused before any work, as are a
    ``policy`` that is not a ``StopPolicy`` (None: ``DEFAULT_POLICY``) and
    more trials than ``MAX_TRIALS``, or ``2 * MAX_TRIALS // d`` for a
    d-dimensional objective with d > 2.

    The starts come from one RNG stream for ``seed`` (a non-negative
    integer), drawn in trial order, and are stepped and labelled as the
    stable-set grid is (``critical._label_starts``): cut in trial order
    into chunks of ``critical.CHUNK`` rows, each stepped and labelled as
    one batch.  A trial lands at record i when its run neither diverged
    nor left the domain box and ends with a gradient norm at most
    ``basin_tol`` within ``basin_tol`` (infinity norm) of record i;
    ``sample_local_stable_set`` counts a grid point as converged by the
    same rule.  ``n_jobs`` (at least 1) is the most threads to use: the
    chunks are mapped by ``min(n_jobs, os.cpu_count(), number of chunks)``
    threads, or without a thread pool when that is 1.  The stepping is
    elementwise, so the report is identical for any chunk size and thread
    count.  A ``NumericalFailureError`` names the census-wide trial; it is
    the one of the first failing chunk in trial order, for every
    ``n_jobs``.
    """
    _check_count(n_jobs, "n_jobs", least=1)
    policy = _check_policy(policy)
    _check_real(basin_tol, "basin_tol", "non-negative")
    gmap = GradientMap(objective, alpha)
    domain = objective.domain_box
    box = domain if init_box is None else _as_box(init_box, len(domain), "init_box", flat=True)
    if np.any(box[:, 0] < domain[:, 0]) or np.any(box[:, 1] > domain[:, 1]):
        raise ContractViolationError("init_box must lie inside the domain box")
    if records is not None:
        records = _check_records(records, objective.dimension)
    x0s = _box_samples(seed, n_trials, box, "n_trials", most=2 * MAX_TRIALS // max(len(box), 2))
    if records is None:
        records = find_critical_points(objective)

    codes, iterations, final_grad_norm = _label_starts(gmap, x0s, policy, records, basin_tol,
                                                       n_jobs)
    table = _label_table(records)
    labels = np.array(table, dtype=object)[codes].tolist()
    counts = np.bincount(codes, minlength=len(table)).tolist()
    n_records = len(records)
    diverged, left_box, unresolved = counts[n_records:]
    saddle_hits = sum(counts[i] for i, rec in enumerate(records) if rec.is_strict_saddle)

    return MonteCarloReport(
        n_trials=n_trials,
        seed=seed,
        alpha=gmap.alpha,
        init_box=box,
        basin_counts=dict(enumerate(counts[:n_records])),
        diverged=diverged,
        left_box=left_box,
        unresolved=unresolved,
        saddle_hits=saddle_hits,
        records=list(records),
        trial_x0=x0s,
        trial_labels=labels,
        trial_iterations=iterations,
        trial_final_grad_norm=final_grad_norm,
    )


class RateFit(Record):
    """Least-squares rate estimate over a trajectory tail.

    Linear regime: distances behave like C * b^k and ``fitted_b`` is the
    estimated b.  Power regime: distances behave like C * k^p and
    ``fitted_exponent`` is the estimated p (negative for decay).  ``regime``
    is ``"Linear"`` or ``"Power"``.
    """

    __slots__ = ("regime", "fitted_b", "fitted_exponent", "fit_window", "r_squared", "n_points")


def _fit_window(traj: Trajectory, x_star) -> tuple[np.ndarray, np.ndarray]:
    """Iterate indices and distances surviving the window rule.

    Drops the first fifth of the trajectory (transient) and anything
    within 100 machine epsilons of the limit (roundoff floor), both of
    which would bias a log-space fit.
    """
    distances = _row_norms(traj.iterates - x_star)
    n = distances.shape[0]
    start = n // 5
    ks = np.arange(n)
    keep = (ks >= start) & (distances > FIT_FLOOR)
    return ks[keep], distances[keep]


def _least_squares_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    if ss_tot <= 0.0:
        r_squared = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def _rate_fit(regime: str, ks: np.ndarray, xs: np.ndarray, distances: np.ndarray) -> RateFit:
    """``regime``'s fit of log distances against ``xs`` over iterates ``ks``.

    The slope is log b for the linear regime and the exponent p for the
    power regime.  Fewer than 10 usable iterates raise insufficient data.
    """
    if ks.size < 10:
        raise InsufficientDataError(
            f"only {ks.size} usable iterates in the fit window; need 10"
        )
    slope, _, r_squared = _least_squares_line(xs, np.log(distances))
    linear = regime == "Linear"
    return RateFit(
        regime=regime,
        fitted_b=float(np.exp(slope)) if linear else None,
        fitted_exponent=None if linear else slope,
        fit_window=(int(ks[0]), int(ks[-1])),
        r_squared=r_squared,
        n_points=int(ks.size),
    )


def _require_converged(traj: Trajectory, x_star) -> None:
    if np.max(np.abs(traj.final_x - x_star)) > BASIN_TOL:
        raise ContractViolationError(
            "trajectory does not end at the given limit point; rate fits "
            "are meaningful only along a convergent tail"
        )


def fit_linear_rate(traj: Trajectory, x_star) -> RateFit:
    """Estimate b from log ||x_k - x*|| = log C + k log b.

    Requires at least 10 usable iterates after the window rule; raises an
    insufficient-data error otherwise (a trajectory started at the limit
    has no usable iterates at all).
    """
    x_star = _check_vector(x_star, traj.iterates.shape[1:], "x_star")
    _require_converged(traj, x_star)
    ks, distances = _fit_window(traj, x_star)
    return _rate_fit("Linear", ks, ks.astype(float), distances)


def fit_power_rate(traj: Trajectory, x_star) -> RateFit:
    """Estimate p from log ||x_k - x*|| = log C + p log k over the tail.

    Unlike the linear fit this does not require the trajectory to have
    reached the limit: sublinear decay typically exhausts the iteration
    budget far from it.  It does require the tail to be approaching
    x_star, otherwise the regression is meaningless.
    """
    x_star = _check_vector(x_star, traj.iterates.shape[1:], "x_star")
    ks, distances = _fit_window(traj, x_star)
    if distances.size >= 2 and distances[-1] >= distances[0]:
        raise ContractViolationError(
            "trajectory tail is not approaching the given limit point"
        )
    positive = ks >= 1
    ks, distances = ks[positive], distances[positive]
    return _rate_fit("Power", ks, np.log(ks.astype(float)), distances)


def rate_fits(traj: Trajectory, x_star) -> list[RateFit]:
    """The fits of the regimes whose applicability gate accepts the trajectory.

    Linear comes before Power.  A gate rejects with a contract violation
    (the linear fit demands an actually reached limit, the power fit a
    tail approaching it) or with an insufficient-data error (fewer than
    10 usable iterates); either way that regime drops out.  If both
    regimes reject, the first error propagates.
    """
    fits = []
    first_error = None
    for fitter in (fit_linear_rate, fit_power_rate):
        try:
            fits.append(fitter(traj, x_star))
        except (ContractViolationError, InsufficientDataError) as exc:
            if first_error is None:
                first_error = exc
    if not fits:
        raise first_error
    return fits


def _best_of(fits: list[RateFit]) -> RateFit:
    """The fit with the better r-squared; a tie goes to the first, Linear."""
    return max(fits, key=lambda fit: fit.r_squared)


def best_rate_fit(traj: Trajectory, x_star) -> RateFit:
    """Of ``rate_fits``, the fit with the better r-squared; a tie goes to Linear."""
    return _best_of(rate_fits(traj, x_star))


class LojasiewiczCertificate(Record):
    """Sampled check of the gradient inequality near a critical point.

    States that ||grad f(x)|| >= m |f(x) - f(x*)|^a held (violations = 0)
    for every sampled x in the punctured ball with f above the critical
    value; ``epsilon`` records the largest level-set gap seen, which is
    the width on which the certificate was actually exercised.
    """

    __slots__ = ("a", "m", "epsilon", "neighborhood_radius", "n_samples", "n_used", "violations")


def check_lojasiewicz(
    objective: Objective,
    x_star,
    a: float,
    m: float,
    radius: float,
    n_samples: int = 1000,
    seed: int = 0,
) -> LojasiewiczCertificate:
    """Sample the ball around x* and count gradient-inequality violations.

    Points with f(x) <= f(x*) are outside the inequality's scope and are
    skipped.  Equality is allowed: a sample counts as a violation only if
    the left side falls below the right by more than one part in 1e10,
    since tight certificates (quadratics along their soft direction) sit
    exactly on the boundary.
    """
    if not 0.0 <= _check_real(a, "a") < 1.0:
        raise ContractViolationError("exponent a must lie in [0, 1)")
    m = _check_real(m, "m", "non-negative")
    radius = _check_real(radius, "radius", "positive")
    if not math.isfinite(radius):
        raise ContractViolationError(f"radius must be finite, got {radius!r}")
    x_star = _check_vector(x_star, (objective.dimension,), "x_star")
    cube = _box_samples(seed, n_samples, np.tile([-1.0, 1.0], (x_star.shape[0], 1)), "n_samples")
    f_star = float(objective.value(x_star))

    points = x_star + radius * cube
    dist = _row_norms(points - x_star)
    inside = (dist <= radius) & (dist > 0.0)

    values = objective.value(points)
    gaps = values - f_star
    used = inside & (gaps > 0.0)

    grads = objective.gradient(points)
    grad_norms = _row_norms(grads)
    lhs = grad_norms[used]
    rhs = m * gaps[used] ** a
    violations = int(np.count_nonzero(lhs < rhs * (1.0 - 1e-10)))
    epsilon = float(np.max(gaps[used])) if np.any(used) else 0.0
    return LojasiewiczCertificate(
        a=float(a),
        m=float(m),
        epsilon=epsilon,
        neighborhood_radius=float(radius),
        n_samples=n_samples,
        n_used=int(np.count_nonzero(used)),
        violations=violations,
    )


class PathLengthReport(Record):
    """Empirical tail sums against the gradient-inequality bound."""

    __slots__ = ("max_ratio", "n_checked", "window", "a", "m", "alpha")

    @property
    def success(self) -> bool:
        return self.max_ratio <= 1.0 + 1e-6

    def to_dict(self) -> dict:
        return {**plain(self), "success": self.success}


def path_length_check(
    traj: Trajectory,
    a: float,
    m: float,
    alpha: float | None = None,
    f_star: float | None = None,
    x_star=None,
    radius: float | None = None,
) -> PathLengthReport:
    """Check e_k <= 2 f(x_k)^(1-a) / (alpha m (1-a)) along the tail.

    e_k is the remaining path length sum_{j >= k} ||x_{j+1} - x_j|| taken
    from the finite trajectory (an underestimate of the infinite sum, so
    the check errs conservative).  f is shifted by ``f_star``, defaulting
    to the trajectory's final value.  When ``x_star`` and ``radius`` are
    given, iterates in the checked window must stay inside that ball or
    the certificate does not apply and an error is raised.
    """
    if not 0.0 <= _check_real(a, "a") < 1.0:
        raise ContractViolationError("exponent a must lie in [0, 1)")
    a, m = float(a), _check_real(m, "m", "positive")
    alpha = traj.alpha if alpha is None else _check_real(alpha, "alpha", "positive")
    f_star = float(traj.f_values[-1]) if f_star is None else _check_real(f_star, "f_star")
    radius = None if radius is None else _check_real(radius, "radius", "non-negative")
    if x_star is not None:
        x_star = _check_vector(x_star, traj.iterates.shape[1:], "x_star")

    step_norms = _row_norms(traj.iterates[1:] - traj.iterates[:-1])
    # e[k] = sum of step norms from k onward; reversed cumsum keeps it exact
    tails = np.concatenate([np.cumsum(step_norms[::-1])[::-1], [0.0]])

    gaps = traj.f_values - f_star
    n = gaps.shape[0]
    ks = np.arange(n)
    floor = FIT_FLOOR * max(1.0, abs(f_star))
    usable = (ks >= n // 5) & (gaps > floor)
    if not np.any(usable):
        return PathLengthReport(
            max_ratio=0.0, n_checked=0, window=(0, 0), a=a, m=m, alpha=alpha
        )

    if x_star is not None and radius is not None:
        if float(np.max(_row_norms(traj.iterates[usable] - x_star))) > radius:
            raise InapplicableError(
                "checked window leaves the certified neighborhood; the "
                "path-length bound only holds where the gradient "
                "inequality is certified"
            )

    bounds = 2.0 * gaps[usable] ** (1.0 - a) / (alpha * m * (1.0 - a))
    ratios = tails[usable] / bounds
    window = (int(ks[usable][0]), int(ks[usable][-1]))
    return PathLengthReport(
        max_ratio=float(np.max(ratios)),
        n_checked=int(np.count_nonzero(usable)),
        window=window,
        a=a,
        m=m,
        alpha=alpha,
    )
