"""The constant-step gradient map and its iteration.

The central object is the map

    g(x) = x - alpha * grad f(x)

whose fixed points are the critical points of f and whose Jacobian is
Dg(x) = I - alpha * hess f(x).  Construction enforces alpha * L < 1
strictly, the regime in which g is a diffeomorphism and the analysis
modules downstream are valid.

``run`` iterates g from a starting point and records the full trajectory;
``run_many`` advances a batch of starting points with identical arithmetic
(used by the Monte Carlo driver, where only final states matter).
``closed_form_quadratic`` is the independent oracle for diagonal
quadratics, where the k-th iterate is (1 - alpha*lambda_i)^k x0_i
componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .fileio import atomic_write_csv
from .zoo import Objective


class StopReason(str, Enum):
    GRAD_NORM_BELOW_TOL = "GradNormBelowTol"
    DIVERGED = "Diverged"
    MAX_ITERS = "MaxIters"
    LEFT_DOMAIN_BOX = "LeftDomainBox"


@dataclass(frozen=True)
class StopPolicy:
    """Termination rules for the iteration.

    ``tol`` is on the gradient norm, ``divergence_radius`` on ||x||.  The
    defaults make desk-scale experiments terminate decisively.
    """

    tol: float = 1e-10
    divergence_radius: float = 1e6
    max_iters: int = 100_000

    def __post_init__(self):
        if self.tol < 0 or self.divergence_radius <= 0 or self.max_iters < 0:
            raise ContractViolationError("StopPolicy fields out of range")


DEFAULT_POLICY = StopPolicy()


class GradientMap:
    """g(x) = x - alpha * grad f(x) for a fixed objective and step size.

    ``alpha * lipschitz_bound < 1`` is enforced strictly at construction.
    ``validate=False`` skips the check; that escape hatch exists for
    inspecting the map outside the certified regime (e.g. alpha = 0 gives
    the identity) and none of the analysis guarantees apply there.
    """

    def __init__(self, objective: Objective, alpha: float, validate: bool = True):
        alpha = float(alpha)
        if validate:
            if not alpha > 0:
                raise ContractViolationError("step size alpha must be positive")
            al = alpha * objective.lipschitz_bound()
            if not al < 1.0:
                raise ContractViolationError(
                    f"alpha * L = {al} must be < 1 (alpha={alpha}, "
                    f"L={objective.lipschitz_bound()})"
                )
        self.objective = objective
        self.alpha = alpha

    def step(self, x):
        """One gradient step; accepts a point (d,) or batch (n, d)."""
        return x - self.alpha * self.objective.gradient(x)

    def jacobian(self, x) -> np.ndarray:
        """Dg(x) = I - alpha * hess f(x); symmetric."""
        return np.eye(self.objective.dimension) - self.alpha * self.objective.hessian(x)

    def run(self, x0, policy: StopPolicy = DEFAULT_POLICY) -> "Trajectory":
        return run(self, x0, policy)

    def __repr__(self):
        return f"GradientMap({self.objective!r}, alpha={self.alpha})"


def alpha_from_theta(objective: Objective, theta: float = 0.99) -> float:
    """Step size theta / L for theta < 1, the near-optimal constant-step choice."""
    if not 0 < theta < 1:
        raise ContractViolationError("theta must lie in (0, 1)")
    lip = objective.lipschitz_bound()
    if lip == 0.0:
        raise ContractViolationError("objective has zero curvature bound; pick alpha directly")
    return theta / lip


@dataclass
class Trajectory:
    """A recorded gradient-descent run.

    ``iterates[k+1]`` is exactly the gradient step applied to
    ``iterates[k]`` (bit-reproducible for a fixed objective and alpha).
    """

    iterates: np.ndarray  # (n_iterates, d)
    f_values: np.ndarray  # (n_iterates,)
    grad_norms: np.ndarray  # (n_iterates,)
    stop_reason: StopReason
    alpha: float

    @property
    def n_steps(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def final_x(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_grad_norm(self) -> float:
        return float(self.grad_norms[-1])

    def to_csv(self, path) -> None:
        """Columns k, x_1..x_d, f, grad_norm; written atomically."""
        d = self.iterates.shape[1]
        header = ["k"] + [f"x_{i + 1}" for i in range(d)] + ["f", "grad_norm"]
        rows = (
            [k, *(float(v) for v in self.iterates[k]), float(self.f_values[k]), float(self.grad_norms[k])]
            for k in range(self.iterates.shape[0])
        )
        atomic_write_csv(path, header, rows)


def _row_norms(x) -> np.ndarray:
    # shared by the single and batched loops so both round identically
    return np.sqrt(np.sum(x * x, axis=-1))


def run(gmap: GradientMap, x0, policy: StopPolicy = DEFAULT_POLICY) -> Trajectory:
    """Iterate the gradient map from x0, recording every iterate.

    The first triggered condition decides ``stop_reason``, checked in the
    order: gradient tolerance, divergence radius, iteration cap, domain-box
    exit.  The box-exit check applies only to objectives whose Lipschitz
    certificate is box-local; quadratics carry a global bound and are free
    to leave the box (that is how divergence is observed).

    Raises NumericalFailureError (with the iterate index) if a non-finite
    value or gradient appears.
    """
    obj = gmap.objective
    x = np.array(x0, dtype=float)
    if x.shape != (obj.dimension,):
        raise ContractViolationError(f"x0 must have shape ({obj.dimension},)")
    if not obj.lipschitz_global and not obj.contains(x):
        raise ContractViolationError("x0 lies outside domain_box, where the step-size certificate holds")

    iterates, f_values, grad_norms = [], [], []
    k = 0
    while True:
        f = obj.value(x)
        g = obj.gradient(x)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            raise NumericalFailureError(f"non-finite value or gradient at iterate {k}", k)
        gn = float(_row_norms(g))
        iterates.append(x.copy())
        f_values.append(float(f))
        grad_norms.append(gn)

        if gn <= policy.tol:
            reason = StopReason.GRAD_NORM_BELOW_TOL
        elif float(_row_norms(x)) >= policy.divergence_radius:
            reason = StopReason.DIVERGED
        elif k == policy.max_iters:
            reason = StopReason.MAX_ITERS
        elif not obj.lipschitz_global and not obj.contains(x):
            reason = StopReason.LEFT_DOMAIN_BOX
        else:
            x = x - gmap.alpha * g
            k += 1
            continue
        break

    return Trajectory(
        iterates=np.array(iterates),
        f_values=np.array(f_values),
        grad_norms=np.array(grad_norms),
        stop_reason=reason,
        alpha=gmap.alpha,
    )


@dataclass
class BatchResult:
    """Final states of a batch of runs; no dense trajectories."""

    final_x: np.ndarray  # (n, d)
    final_f: np.ndarray  # (n,)
    final_grad_norm: np.ndarray  # (n,)
    iterations: np.ndarray  # (n,) steps taken per run
    stop_reasons: list  # list[StopReason], length n


# Stop codes of run_many, in the precedence order of the stop rule; a
# code indexes this tuple.
_STOP_CODE_REASONS = (
    StopReason.GRAD_NORM_BELOW_TOL,
    StopReason.DIVERGED,
    StopReason.MAX_ITERS,
    StopReason.LEFT_DOMAIN_BOX,
)
_STOP_CODES = [np.int8(code) for code in range(len(_STOP_CODE_REASONS))]
_RUNNING = np.int8(-1)
# Relative slack of the whole-batch divergence bound; the rounding of a
# d-term row norm is about d * eps relative, far below it.
_BOUND_SLACK = 1e-9
# Entries below this magnitude cannot overflow the squares of a row norm.
_NORM_SAFE = 1e150


def _columns_within(x, lo, hi) -> bool:
    """True when every column j of the batch x lies in [lo[j], hi[j]].

    Strided per-column min/max; a NaN entry makes the test read False.
    """
    return all(
        lo[j] <= x[:, j].min() and x[:, j].max() <= hi[j] for j in range(x.shape[1])
    )


def run_many(gmap: GradientMap, x0s, policy: StopPolicy = DEFAULT_POLICY) -> BatchResult:
    """Advance many starting points at once.

    Arithmetic is elementwise-identical to ``run``, so each row's final
    state matches the corresponding single run bit for bit; only the dense
    history is skipped.  The stop rule is the same as ``run``'s.  Per
    iteration, the divergence and box tests are first settled for the
    whole batch from per-column minima and maxima of the iterates, and
    fall back to the exact per-row tests only when that cannot decide.
    """
    obj = gmap.objective
    x0s = np.array(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != obj.dimension:
        raise ContractViolationError(f"x0s must have shape (n, {obj.dimension})")
    if not obj.lipschitz_global and not np.all(obj.contains(x0s)):
        raise ContractViolationError("some starting points lie outside domain_box")

    n, d = x0s.shape
    final_x = np.zeros_like(x0s)
    final_f = np.zeros(n)
    final_gn = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    codes = np.full(n, _RUNNING, dtype=np.int8)

    # Rows whose entries all lie in [-cube, cube] have norm below the
    # divergence radius.  A box-local certificate keeps the rows inside
    # the box, which settles divergence too when the box fits the cube.
    cube = min(policy.divergence_radius, _NORM_SAFE) / (np.sqrt(d) * (1.0 + _BOUND_SLACK))
    lo = np.full(d, -cube)
    hi = np.full(d, cube)
    check_box = not obj.lipschitz_global
    box_lo, box_hi = obj.domain_box[:, 0], obj.domain_box[:, 1]
    box_in_cube = bool(np.all(box_lo >= lo) and np.all(box_hi <= hi))

    x = x0s
    active = np.arange(n)
    k = 0
    while active.size:
        f = obj.value(x)
        g = obj.gradient(x)
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            bad = ~(np.isfinite(f) & np.all(np.isfinite(g), axis=-1))
            trial = int(active[np.argmax(bad)])
            raise NumericalFailureError(
                f"non-finite value or gradient at iterate {k} (trial {trial})", k
            )
        gn = _row_norms(g)
        tol_hit = gn <= policy.tol

        in_box = check_box and _columns_within(x, box_lo, box_hi)
        if (in_box and box_in_cube) or _columns_within(x, lo, hi):
            div_hit = np.False_
        else:
            div_hit = _row_norms(x) >= policy.divergence_radius
        if check_box and not in_box:
            box_exit = ~obj.contains(x)
        else:
            box_exit = np.False_
        capped = np.bool_(k == policy.max_iters)

        if capped or (tol_hit | div_hit | box_exit).any():
            code = np.select([tol_hit, div_hit, capped, box_exit], _STOP_CODES, _RUNNING)
            done = code != _RUNNING
            idx = active[done]
            final_x[idx] = x[done]
            final_f[idx] = f[done]
            final_gn[idx] = gn[done]
            iterations[idx] = k
            codes[idx] = code[done]
            keep = ~done
            active = active[keep]
            x = x[keep] - gmap.alpha * g[keep]
        else:
            x = x - gmap.alpha * g
        k += 1

    reasons = np.array(_STOP_CODE_REASONS, dtype=object)[codes].tolist()
    return BatchResult(final_x, final_f, final_gn, iterations, reasons)


def closed_form_quadratic(lambdas, alpha: float, x0, k: int) -> np.ndarray:
    """Exact k-th iterate on a diagonal quadratic: (1 - alpha*lambda_i)^k x0_i.

    The factor is applied k times rather than raised to the k-th power in
    one call: for dyadic step sizes the repeated product rounds exactly as
    the engine's per-step arithmetic does, which keeps growing modes in
    lockstep at the oracle's 1e-12 absolute tolerance.
    """
    if k < 0 or int(k) != k:
        raise ContractViolationError("iteration count k must be a non-negative integer")
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    out = np.array(x0, dtype=float)
    if out.shape != lambdas.shape:
        raise ContractViolationError("x0 and lambdas must have matching shapes")
    factors = 1.0 - alpha * lambdas
    for _ in range(int(k)):
        out = factors * out
    return out


def descent_violations(traj: Trajectory, objective: Objective, slack: float = 1e-12) -> int:
    """Count steps violating the guaranteed decrease

        f(x_{k+1}) <= f(x_k) - alpha (1 - alpha L / 2) ||grad f(x_k)||^2

    up to ``slack``.  Steps whose endpoints leave the certified box are
    excluded when the Lipschitz bound is box-local.
    """
    lip = objective.lipschitz_bound()
    coeff = traj.alpha * (1.0 - traj.alpha * lip / 2.0)
    decrease = traj.f_values[:-1] - coeff * traj.grad_norms[:-1] ** 2
    violated = traj.f_values[1:] > decrease + slack
    if not objective.lipschitz_global:
        inside = objective.contains(traj.iterates)
        violated &= inside[:-1] & inside[1:]
    return int(np.count_nonzero(violated))
