"""Statistical experiments: saddle avoidance, basin accounting, and rates.

The Monte Carlo driver runs trajectories from uniformly drawn starts and
assigns each limit to a critical-point basin.  The rate fitters extract
the contraction factor (linear regime) or decay exponent (power regime)
from a single trajectory, and the gradient-inequality checker certifies
the (a, m) pair those rates are predicted from.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .critical import _check_records, find_critical_points
from .engine import (
    BatchResult,
    GradientMap,
    StopPolicy,
    StopReason,
    Trajectory,
    _box_samples,
    _check_policy,
    _row_norms,
    run_many,
)
from .errors import (BasinAmbiguityError, ContractViolationError, InapplicableError,
                     InsufficientDataError, _check_count, _check_real)
from .fileio import atomic_write_columns, plain
from .zoo import Objective, _as_box, _check_vector

LABEL_DIVERGED = "Diverged"
LABEL_LEFT_BOX = "LeftBox"
LABEL_UNRESOLVED = "Unresolved"

BASIN_TOL = 1e-6
FIT_FLOOR = 100.0 * np.finfo(float).eps
# Trials per Monte Carlo worker thread, at least.  Below about this many
# rows per chunk, threads stepping the nesterov census on 2 cores ran
# slower than one thread stepping all of them; with one BLAS thread and f
# taken only at the stops, two threads on chunks of 5k, 8k and 12k rows
# won 0, 5 and 6 of 10 alternating pairs against one.
MIN_CHUNK = 10_000


# a bare StopReason operand would be converted to a numpy string and
# compare unequal to every object; a 0-d object array compares members
_DIVERGED = np.array(StopReason.DIVERGED, dtype=object)
_LEFT_BOX = np.array(StopReason.LEFT_DOMAIN_BOX, dtype=object)


def _settled(stop_reasons, final_grad_norm, tol) -> np.ndarray:
    """Which final states a critical-point record may claim, as booleans.

    A final state has settled if it stopped neither Diverged nor
    LeftDomainBox and its gradient norm is not above ``tol``; any other
    is Diverged, LeftBox or Unresolved whatever the records are, so the
    records are read only for a settled one.
    """
    reasons = np.asarray(stop_reasons, dtype=object)
    return (reasons != _DIVERGED) & (reasons != _LEFT_BOX) & ~(np.asarray(final_grad_norm) > tol)


def _basin_codes(result: BatchResult, records, tol) -> np.ndarray:
    """The basin of each final state of a batch, as integer codes.

    Code ``i < len(records)`` is record i; codes ``len(records)`` + 0, 1
    and 2 are Diverged, LeftBox and Unresolved (see ``_label_table``).  A
    row that has not settled (see ``_settled``) is never a record's; a
    settled one is Unresolved unless a record lies within ``tol`` of it
    (infinity norm).  A row within ``tol`` of two records raises an
    ambiguity error: the tolerance no longer separates them.
    """
    n_records = len(records)
    reasons = np.asarray(result.stop_reasons, dtype=object)
    codes = np.full(reasons.shape[0], n_records + 2, dtype=np.min_scalar_type(n_records + 2))
    codes[reasons == _DIVERGED] = n_records
    codes[reasons == _LEFT_BOX] = n_records + 1
    settled = _settled(reasons, result.final_grad_norm, tol)
    ambiguous = np.zeros_like(settled)
    for i, rec in enumerate(records):
        hit = settled & (np.abs(result.final_x - rec.location) <= tol).all(axis=-1)
        ambiguous |= hit & (codes < n_records)
        codes[hit] = i
    if np.any(ambiguous):
        t = int(np.argmax(ambiguous))
        matches = [i for i, rec in enumerate(records)
                   if np.max(np.abs(result.final_x[t] - rec.location)) <= tol]
        raise BasinAmbiguityError(
            f"final iterate within {tol} of records {matches}; "
            "basin tolerance is wider than the critical-point separation"
        )
    return codes


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


class MonteCarloReport:
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

    def __init__(self, n_trials: int, seed: int, alpha: float, init_box: np.ndarray,
                 basin_counts: dict, diverged: int, left_box: int, unresolved: int,
                 saddle_hits: int, records: list | None = None,
                 trial_x0: np.ndarray | None = None, trial_labels: list | None = None,
                 trial_iterations: np.ndarray | None = None,
                 trial_final_grad_norm: np.ndarray | None = None):
        self.n_trials = n_trials
        self.seed = seed
        self.alpha = alpha
        self.init_box = init_box
        self.basin_counts = basin_counts
        self.diverged = diverged
        self.left_box = left_box
        self.unresolved = unresolved
        self.saddle_hits = saddle_hits
        self.records = [] if records is None else records
        self.trial_x0 = trial_x0
        self.trial_labels = [] if trial_labels is None else trial_labels
        self.trial_iterations = trial_iterations
        self.trial_final_grad_norm = trial_final_grad_norm

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


def _worker_count(n_jobs: int, n_trials: int, cpu_count: int) -> int:
    """Threads for a census: the request, capped by the cores and by
    chunks of at least MIN_CHUNK trials."""
    return min(n_jobs, cpu_count, max(1, n_trials // MIN_CHUNK))


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
    the objective's dimension are refused before any work, as is a
    ``policy`` that is not a ``StopPolicy`` (None: ``DEFAULT_POLICY``).
    ``n_jobs`` (at least 1) is the most threads to use: the trials are
    split in trial order into
    ``min(n_jobs, os.cpu_count(), max(1, n_trials // MIN_CHUNK))`` parts,
    each stepped and labelled by one thread.  The starts come from one RNG
    stream for ``seed`` (a non-negative integer), drawn in trial order
    before the split, and the stepping is elementwise, so the report is
    identical for any split.
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
    x0s = _box_samples(seed, n_trials, box, "n_trials")
    if records is None:
        records = find_critical_points(objective)

    def label(part):
        result = run_many(gmap, part, policy)
        return _basin_codes(result, records, basin_tol), result.iterations, result.final_grad_norm

    parts = np.array_split(x0s, _worker_count(n_jobs, n_trials, os.cpu_count() or 1))
    if len(parts) == 1:
        labelled = map(label, parts)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            labelled = list(pool.map(label, parts))
    codes, iterations, final_grad_norm = (np.concatenate(column) for column in zip(*labelled))
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


class RateFit:
    """Least-squares rate estimate over a trajectory tail.

    Linear regime: distances behave like C * b^k and ``fitted_b`` is the
    estimated b.  Power regime: distances behave like C * k^p and
    ``fitted_exponent`` is the estimated p (negative for decay).
    """

    __slots__ = ("regime", "fitted_b", "fitted_exponent", "fit_window", "r_squared", "n_points")

    def __init__(self, regime: str, fitted_b: float | None, fitted_exponent: float | None,
                 fit_window: tuple, r_squared: float, n_points: int):
        self.regime = regime  # "Linear" or "Power"
        self.fitted_b = fitted_b
        self.fitted_exponent = fitted_exponent
        self.fit_window = fit_window
        self.r_squared = r_squared
        self.n_points = n_points

    def to_dict(self) -> dict:
        return plain(self)


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


class LojasiewiczCertificate:
    """Sampled check of the gradient inequality near a critical point.

    States that ||grad f(x)|| >= m |f(x) - f(x*)|^a held (violations = 0)
    for every sampled x in the punctured ball with f above the critical
    value; ``epsilon`` records the largest level-set gap seen, which is
    the width on which the certificate was actually exercised.
    """

    __slots__ = ("a", "m", "epsilon", "neighborhood_radius", "n_samples", "n_used", "violations")

    def __init__(self, a: float, m: float, epsilon: float, neighborhood_radius: float,
                 n_samples: int, n_used: int, violations: int):
        self.a = a
        self.m = m
        self.epsilon = epsilon
        self.neighborhood_radius = neighborhood_radius
        self.n_samples = n_samples
        self.n_used = n_used
        self.violations = violations

    def to_dict(self) -> dict:
        return plain(self)


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


class PathLengthReport:
    """Empirical tail sums against the gradient-inequality bound."""

    __slots__ = ("max_ratio", "n_checked", "window", "a", "m", "alpha")

    def __init__(self, max_ratio: float, n_checked: int, window: tuple, a: float, m: float,
                 alpha: float):
        self.max_ratio = max_ratio
        self.n_checked = n_checked
        self.window = window
        self.a = a
        self.m = m
        self.alpha = alpha

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
