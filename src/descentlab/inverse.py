"""Inversion of the gradient map via its proximal-point characterization.

For step sizes with alpha * L < 1 the map g(x) = x - alpha * grad f(x) is a
bijection onto its image, and the preimage of y is the minimizer of the
strongly convex subproblem

    phi(x) = 1/2 ||x - y||^2 - alpha * f(x),

whose gradient is exactly g(x) - y.  The solver below exploits that
identity: driving the subproblem gradient to zero is the same thing as
matching y.
"""

from __future__ import annotations

import numpy as np

from .engine import (GradientMap, _backtrack, _box_samples, _row_norms, _solve_rows,
                     _squared_tolerance, _sum_squares)
from .errors import ContractViolationError, NonConvergenceError, _check_real
from .fileio import Record
from .zoo import _check_vector

__all__ = [
    "InjectivityReport", "ProxSolveReport", "RoundTripReport", "injectivity_margin_check",
    "invert", "roundtrip_check",
]

MAX_INNER = 200  # iteration budget of one inversion
# The default tolerance of ``invert`` and the one of ``roundtrip_check``.
INVERT_TOL = 1e-10


class ProxSolveReport(Record):
    """Outcome of one inversion: the preimage and its certificate.

    ``residual`` is ||g(solution) - y||; ``subproblem_modulus`` is
    1 - alpha * L, the strong-convexity floor of the subproblem.
    """

    __slots__ = ("solution", "residual", "inner_iterations", "subproblem_modulus")


def invert(
    gmap: GradientMap,
    y,
    tol: float = INVERT_TOL,
    x0=None,
) -> ProxSolveReport:
    """Unique preimage of y under the gradient map.

    Damped Newton on the subproblem, started at y (or ``x0`` when given),
    with a plain gradient step of size 1/(1 + alpha*L) whenever the Newton
    direction fails the decrease check.  Stops once the subproblem gradient
    norm falls below tol * (1 - alpha*L), which bounds the distance to the
    true preimage by tol; the reported residual is the final ||g(x) - y||
    itself.  Raises a non-convergence error carrying the best residual if
    the budget of ``MAX_INNER`` iterations runs out, which usually means y
    lies too far outside the image of the certified region; a start that
    already solves y returns with no iterations, whatever the budget.  ``y``
    and ``x0`` must be finite points of the objective's dimension.  This is
    the batched solver behind ``roundtrip_check`` run on one row, with the
    same iterates.  A negative or NaN ``tol`` is refused before any work.
    """
    _check_real(tol, "tol", "non-negative")
    dimension = gmap.objective.dimension
    y = _check_vector(y, (dimension,), "y")
    start = y if x0 is None else _check_vector(x0, (dimension,), "x0")
    solutions, residuals, iterations, modulus = _invert_batch(
        gmap, y[None, :], start[None, :], tol
    )
    return ProxSolveReport(
        solution=solutions[0],
        residual=float(residuals[0]),
        inner_iterations=int(iterations[0]),
        subproblem_modulus=modulus,
    )


def _invert_batch(gmap: GradientMap, ys, starts, tol: float):
    """Preimages of the rows of ``ys``, each solved from the same row of ``starts``.

    Returns ``(solutions, residuals, inner_iterations, modulus)``.  Every
    row runs the iteration ``invert`` describes, with its own line search
    and its own fallback step.  Each round drops the rows that have left,
    in one compaction, stops once the budget of ``MAX_INNER`` iterations
    is spent, and steps the rest.
    A row leaves solved when its merit reaches the stop, and unsolved when
    its Newton and fallback steps are both refused; -1 in its
    ``inner_iterations`` entry marks a row unsolved, one still running
    when the budget is spent too.  If any row is unsolved, raises the
    non-convergence error of the lowest-indexed one, carrying that row's
    best residual.
    """
    obj = gmap.objective
    gradient, alpha = obj._gradient, gmap.alpha
    lipschitz = obj.lipschitz_bound()
    modulus = 1.0 - alpha * lipschitz
    stop2 = _squared_tolerance(tol * modulus)
    fallback_step = 1.0 / (1.0 + alpha * lipschitz)
    identity = np.eye(obj.dimension)

    n = ys.shape[0]
    solutions = np.empty_like(ys)
    residuals = np.empty(n)
    iterations = np.full(n, -1, dtype=np.int64)
    best_merit = np.full(n, np.inf)

    def residual(trial, rows):
        # gmap.step(trial) - y[rows], on the unchecked gradient
        return trial - alpha * gradient(trial) - y[rows]

    # The decrease check runs on the squared residual, not the subproblem
    # value: near the solution the value's per-step decrease underflows
    # against its O(1) magnitude, while the residual stays resolvable all
    # the way down.  The Newton direction is a descent direction for this
    # merit wherever the solve succeeds (its slope is the squared gradient
    # norm identically), so damping remains meaningful too.
    # A target far outside the image overflows the residual; such a row
    # fails the finite-merit test and is reported, not warned about.
    # The stop test is ``merit <= stop2``, which is ``sqrt(merit) <= tol *
    # modulus`` bit for bit (``_squared_tolerance``), and the best residual
    # is the square root of the best merit, so square roots are taken only
    # for the rows that stop.
    with np.errstate(over="ignore", invalid="ignore"):
        active, x, y = np.arange(n), starts, ys
        grad = x - alpha * gradient(x) - y
        merit = _sum_squares(grad)
        refused = np.zeros(n, dtype=bool)
        # the iterates 0 .. MAX_INNER - 1 are tested, the start even on a
        # budget of 0, and no step is taken from the last of them
        for iteration in range(max(MAX_INNER, 1)):
            best_merit[active] = np.fmin(best_merit[active], merit)
            done = merit <= stop2
            left = done | refused
            if left.any():
                rows = active[done]
                solutions[rows] = x[done]
                residuals[rows] = np.sqrt(merit[done])
                iterations[rows] = iteration
                keep = ~left
                active, x, y, grad, merit = active[keep], x[keep], y[keep], grad[keep], merit[keep]
            if not active.size or iteration + 1 >= MAX_INNER:
                break

            hess = identity - alpha * obj._hessian(x)
            direction, singular = _solve_rows(hess, grad)
            pending = np.arange(active.size) if singular is None else np.flatnonzero(~singular)
            # a row whose step is refused keeps its point in the copies
            out = x.copy(), grad.copy(), merit.copy()
            accepted = _backtrack(
                residual, x, direction, pending, 30,
                lambda trial_merit, rows, step: trial_merit <= merit[rows] * (1.0 - 1e-4 * step),
                out,
            )
            rest = np.flatnonzero(~accepted)
            if rest.size:
                # one plain gradient step, taken whenever its merit is finite
                accepted |= _backtrack(
                    residual, x, fallback_step * grad, rest, 1,
                    lambda trial_merit, rows, step: True, out,
                )
            x, grad, merit = out
            refused = ~accepted

    unsolved = np.flatnonzero(iterations < 0)
    if unsolved.size:
        best_residual = float(np.sqrt(best_merit[unsolved[0]]))
        raise NonConvergenceError(
            f"inversion budget of {MAX_INNER} iterations exhausted "
            f"(best residual {best_residual:.3e}, requested {tol:.3e})",
            best_residual,
        )
    return solutions, residuals, iterations, modulus


class InjectivityReport(Record):
    """Sampled lower bound on the gradient map's expansion ratio.

    ``threshold`` is 1 - alpha * L minus numerical slack.
    """

    __slots__ = ("n_pairs", "n_used", "min_ratio", "threshold", "violations")


def injectivity_margin_check(
    gmap: GradientMap, n_pairs: int, seed: int = 0
) -> InjectivityReport:
    """Check ||g(x) - g(y)|| >= (1 - alpha*L) ||x - y|| on random pairs.

    Pairs are uniform on the domain box; coincident pairs are skipped.
    A pair counts as a violation when its ratio falls below the margin by
    more than 1e-9 of slack.
    """
    obj = gmap.objective
    xs, ys = np.split(_box_samples(seed, n_pairs, obj.domain_box, "n_pairs", copies=2), 2)

    sep = _row_norms(xs - ys)
    keep = sep > 0.0
    mapped = _row_norms(gmap.step(xs) - gmap.step(ys))
    ratios = mapped[keep] / sep[keep]

    threshold = (1.0 - gmap.alpha * obj.lipschitz_bound()) - 1e-9
    min_ratio = float(np.min(ratios)) if ratios.size else np.inf
    violations = int(np.count_nonzero(ratios < threshold))
    return InjectivityReport(
        n_pairs=n_pairs,
        n_used=int(np.count_nonzero(keep)),
        min_ratio=min_ratio,
        threshold=threshold,
        violations=violations,
    )


class RoundTripReport(Record):
    """Worst-case residuals of invert-then-step and step-then-invert.

    ``max_forward_residual`` is the largest ||g(invert(y)) - y|| over
    sampled y = g(x), and ``max_backward_residual`` the largest
    ||invert(g(x)) - x|| over sampled x.
    """

    __slots__ = ("n_samples", "max_forward_residual", "max_backward_residual", "tol")


def roundtrip_check(gmap: GradientMap, n_samples: int, seed: int = 0) -> RoundTripReport:
    """Verify both compositions on points sampled from the domain box.

    Each sample x gives y = g(x) in the image, so invert(y) must recover x
    and re-stepping must recover y.  All samples are inverted to
    ``INVERT_TOL`` in one batched solve whose rows match ``invert`` bit for
    bit; if any fails, the error is the one ``invert`` raises for the first
    failing sample.
    """
    xs = _box_samples(seed, n_samples, gmap.objective.domain_box, "n_samples")
    ys = gmap.step(xs)
    if not np.all(np.isfinite(ys)):
        raise ContractViolationError("y must be finite")
    solutions = _invert_batch(gmap, ys, ys, INVERT_TOL)[0]
    return RoundTripReport(
        n_samples=n_samples,
        max_forward_residual=float(np.max(_row_norms(gmap.step(solutions) - ys))),
        max_backward_residual=float(np.max(_row_norms(solutions - xs))),
        tol=INVERT_TOL,
    )
