"""The constant-step gradient map and its iteration.

The central object is the map

    g(x) = x - alpha * grad f(x)

whose fixed points are the critical points of f and whose Jacobian is
Dg(x) = I - alpha * hess f(x).  Construction enforces alpha * L < 1
strictly, the regime in which g is a diffeomorphism and the analysis
modules downstream are valid.

One private stepping loop, ``_descend``, applies g and the stop rule to a
batch of starting points.  ``run_many`` is that loop on a batch (used by
the Monte Carlo driver, where only final states matter); ``run`` is the
same loop on a one-row batch that also records every iterate, so a row of
``run_many`` and a ``run`` from the same start agree bit for bit.  The
stop rule only watches the orbit x_{k+1} = g(x_k) and never changes it,
so the loop takes a block of steps, calling only the gradient, and then
settles the rule for every iterate of the block at once; each row stops
at its first stopping iterate and the steps it took past it are thrown
away.  A batch of two or more rows settles after every step (a census
does), and a single row steps blocks of 64, so only a single row steps
past its stop, by at most 63 iterates.  On a census the loop's
cost past the arithmetic is selecting and testing rows, so it selects 2-D
rows with ``compress`` for a mask and ``take`` for indices, never with
numpy's much slower boolean-mask indexing, and tests a whole block
against a box or the divergence cube with one ``min`` and one ``max``.
It does no work whose result it does not read: the tolerance is tested
on squared gradient norms, square roots are taken only where a row
stops, and on an objective certified finite on its box
(``Objective.finite_on_box``) f is computed only at the stops while the
block stays in the box; a step where no row can stop advances without
building a mask.
``closed_form_quadratic`` is the independent oracle for diagonal
quadratics, where the k-th iterate is (1 - alpha*lambda_i)^k x0_i
componentwise.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

import numpy as np

from .errors import ContractViolationError, NumericalFailureError, _check_count, _check_real
from .fileio import Record, atomic_write_columns
from .zoo import _PAIRWISE_FROM, Objective, _check_vector

__all__ = [
    "BatchResult", "GradientMap", "StopPolicy", "StopReason", "Trajectory", "alpha_from_theta",
    "closed_form_quadratic", "descent_violations", "run", "run_many",
]


class StopReason(str, Enum):
    """Why a run stopped.  The member order is the stop rule's precedence:
    an iterate that meets several rules stops for the first of them."""

    GRAD_NORM_BELOW_TOL = "GradNormBelowTol"
    DIVERGED = "Diverged"
    MAX_ITERS = "MaxIters"
    LEFT_DOMAIN_BOX = "LeftDomainBox"


class StopPolicy(Record):
    """Termination rules for the iteration.

    ``tol`` is on the gradient norm, ``divergence_radius`` on ||x||.  The
    defaults make desk-scale experiments terminate decisively.  A policy
    is immutable, since ``DEFAULT_POLICY`` is shared by every caller.
    """

    __slots__ = ("tol", "divergence_radius", "max_iters")
    _defaults = {"tol": 1e-10, "divergence_radius": 1e6, "max_iters": 100_000}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _check_real(self.tol, "tol", "non-negative")
        # the stepping loop sizes its blocks by the iterations left
        _check_count(self.max_iters, "max_iters")
        _check_real(self.divergence_radius, "divergence_radius", "positive")

    def __setattr__(self, name, value):
        raise AttributeError(f"a StopPolicy is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a StopPolicy is immutable: cannot delete {name}")


DEFAULT_POLICY = StopPolicy()
THETA_DEFAULT = 0.99  # the step size as a fraction of 1/L, unless a caller gives one


def _check_policy(policy) -> StopPolicy:
    """``policy``, or ``DEFAULT_POLICY`` for None; anything else is refused."""
    if not (policy is None or isinstance(policy, StopPolicy)):
        raise ContractViolationError(f"policy must be a StopPolicy or None, got {policy!r}")
    return DEFAULT_POLICY if policy is None else policy


class GradientMap:
    """g(x) = x - alpha * grad f(x) for a fixed objective and step size.

    ``alpha * lipschitz_bound < 1`` is enforced strictly at construction.
    ``validate=False`` skips the check; that escape hatch exists for
    inspecting the map outside the certified regime (e.g. alpha = 0 gives
    the identity) and none of the analysis guarantees apply there.
    """

    def __init__(self, objective: Objective, alpha: float, validate: bool = True):
        alpha = _check_real(alpha, "alpha", "positive" if validate else "")
        if validate:
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

    def __repr__(self):
        return f"GradientMap({self.objective!r}, alpha={self.alpha})"


def alpha_from_theta(objective: Objective, theta: float = THETA_DEFAULT) -> float:
    """Step size theta / L for theta < 1, the near-optimal constant-step choice."""
    if not 0 < _check_real(theta, "theta") < 1:
        raise ContractViolationError("theta must lie in (0, 1)")
    lip = objective.lipschitz_bound()
    if lip == 0.0:
        raise ContractViolationError("objective has zero curvature bound; pick alpha directly")
    return theta / lip


class Trajectory(Record):
    """A recorded gradient-descent run.

    ``iterates`` has shape (n_iterates, d); ``f_values`` and
    ``grad_norms`` have shape (n_iterates,).  ``iterates[k+1]`` is exactly
    the gradient step applied to ``iterates[k]`` (bit-reproducible for a
    fixed objective and alpha).
    """

    __slots__ = ("iterates", "f_values", "grad_norms", "stop_reason", "alpha")

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
        n, d = self.iterates.shape
        header = ["k"] + [f"x_{i + 1}" for i in range(d)] + ["f", "grad_norm"]
        columns = [np.arange(n), *self.iterates.T, self.f_values, self.grad_norms]
        atomic_write_columns(path, header, columns)


def _sum_squares(x) -> np.ndarray:
    # The library's one row sum of squares; rounds as np.sum(x * x,
    # axis=-1) does.  Below ``_PAIRWISE_FROM`` terms the columns are added
    # one after another, as the reduction adds them (a square is never
    # -0.0, so the reduction's 0.0 start changes nothing); from it on it is
    # the reduction np.sum dispatches to.
    d = x.shape[-1]
    if d >= _PAIRWISE_FROM:
        return np.add.reduce(x * x, axis=-1)
    s = x[..., 0] * x[..., 0]
    for j in range(1, d):
        s += x[..., j] * x[..., j]
    return s


def _row_norms(x) -> np.ndarray:
    return np.sqrt(_sum_squares(x))


def _box_samples(seed, n, box, name: str, copies: int = 1, most=None) -> np.ndarray:
    """``copies * n`` points uniform on ``box`` (rows [lo, hi]).

    They are drawn row by row in order from ``np.random.default_rng(seed)``,
    so row i does not depend on n or on how the rows are split afterwards.
    Every sampler of the library draws through this, so a sample count
    ``name`` (``n_...``) that is not an integer, below 1, above ``most``
    (None: no cap) or too large for an array, and then any seed but a
    non-negative integer (negative, boolean, fractional, None, a
    sequence), are refused with a contract violation before the caller
    has done any work.
    """
    _check_count(n, name, least=1, most=most)
    lo, hi = box[:, 0], box[:, 1]
    if n > np.iinfo(np.intp).max // (8 * copies * lo.shape[0]):
        raise ContractViolationError(f"{name} = {n} is more {name[2:]} than an array can hold")
    _check_count(seed, "seed")
    # scaled in place: no temporary as large as the samples
    samples = np.random.default_rng(seed).random((copies * n, lo.shape[0]))
    samples *= hi - lo
    samples += lo
    return samples


def _solve_rows(mats, rhs):
    """Solve ``mats[i] @ out[i] = rhs[i]`` for a batch of square systems.

    Returns ``(out, singular)``.  One LAPACK call solves the whole batch;
    only when it reports a singular matrix are the rows solved one by one,
    and ``singular`` then marks the rows that failed (their ``out`` rows
    are undefined).  Otherwise ``singular`` is None.  Used by the batched
    Newton searches, which give each singular row its own fallback.
    """
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        singular = np.zeros(rhs.shape[0], dtype=bool)
        for i in range(rhs.shape[0]):
            try:
                out[i] = np.linalg.solve(mats[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


# Coordinates of the trial points that one line-search evaluation holds,
# at most, past the full step: the rows that refuse the full step try as
# many further steps at once as fit, so m rows in d dimensions settle in
# two evaluations when m * d * (tries - 1) fits, and a batch too large for
# two steps per row tries one step at a time.
_TRIAL_ENTRIES = 8192


def _backtrack(residual, x, direction, rows, tries: int, decrease, out):
    """The batched Newton solvers' line search along ``-direction`` on ``rows`` of ``x``.

    ``rows`` holds distinct row indices in ascending order.  Each row
    tries steps s = 1, 1/2, ... (``tries`` at most) and takes the first
    whose merit ``_sum_squares(residual(trial, rows))`` is finite and
    passes ``decrease(merit, rows, s)``, writing the trial point, residual
    and merit into its row of ``out``.  Returns the rows that took a step.

    Every row first tries the full step, in one evaluation; the rows that
    refuse it then try all their further steps at once, and each takes
    its first passing one.  So ``residual`` and ``decrease`` see a stack of
    trial points of shape ``(w, m, d)``, merits of shape ``(w, m)`` and
    steps of shape ``(w, 1)``: w steps, each tried on the same m rows.  A
    stack holds at most ``_TRIAL_ENTRIES`` coordinates past the full step
    (at least one step), so a large batch tries one step at a time.  Each
    trial point, residual and merit comes from the same elementwise
    arithmetic on the same exact powers of two as in a search that halves
    the step one evaluation at a time, so every row takes the same step
    bit for bit.  The stack also holds steps past a row's first passing
    one, which may overflow; a non-finite merit fails anyway, so no numpy
    warning reports it.
    """
    accepted = np.zeros(x.shape[0], dtype=bool)
    d = x.shape[1]
    steps = np.ldexp(1.0, -np.arange(tries))[:, None]
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while rows.size and k < tries:
            m = rows.size
            width = 1 if k == 0 else max(1, min(tries - k, _TRIAL_ENTRIES // (m * d)))
            step = steps[k:k + width]
            every = m == x.shape[0]  # rows is then every row of x, in order
            x_rows, d_rows = (x, direction) if every else (x[rows], direction[rows])
            trial = x_rows - step[:, :, None] * d_rows
            trial_residual = residual(trial, rows)
            trial_merit = _sum_squares(trial_residual)
            ok = np.isfinite(trial_merit) & decrease(trial_merit, rows, step)
            hit = ok.any(axis=0)
            took = np.flatnonzero(hit)
            taken = rows[took]
            stack = trial, trial_residual, trial_merit
            if every and width == 1 and took.size == m:
                for buffer, values in zip(out, stack):
                    buffer[...] = values[0]
            else:
                first = ok[:, took].argmax(axis=0) if width > 1 else 0
                for buffer, values in zip(out, stack):
                    buffer[taken] = values[first, took]
            accepted[taken] = True
            rows = rows[~hit]
            k += width
    return accepted


def run(gmap: GradientMap, x0, policy: StopPolicy | None = None) -> Trajectory:
    """Iterate the gradient map from x0, recording every iterate.

    The first triggered condition decides ``stop_reason``, checked in the
    order: gradient tolerance, divergence radius, iteration cap, domain-box
    exit.  The box-exit check applies only to objectives whose Lipschitz
    certificate is box-local; quadratics carry a global bound and are free
    to leave the box (that is how divergence is observed).  ``policy``
    None means ``DEFAULT_POLICY``.  f and the gradient norms are read off
    the iterates once, after the loop, with the loop's own row arithmetic.

    Raises NumericalFailureError (with the iterate index) if a non-finite
    value or gradient appears.
    """
    policy = _check_policy(policy)
    obj = gmap.objective
    x = _check_vector(x0, (obj.dimension,), "x0")
    if not obj.lipschitz_global and not obj.contains(x):
        raise ContractViolationError("x0 lies outside domain_box, where the step-size certificate holds")
    blocks = []
    result = _descend(gmap, x[None, :], policy, blocks)
    iterates = np.concatenate(blocks)[:result.iterations[0] + 1]
    # as in the loop: a finite gradient whose norm overflows is a legal iterate
    with np.errstate(all="ignore"):
        f_values = obj._value(iterates)
        grad_norms = _row_norms(obj._gradient(iterates))
    return Trajectory(iterates, f_values, grad_norms, result.stop_reasons[0], gmap.alpha)


class BatchResult(Record):
    """Final states of a batch of n runs; no dense trajectories.

    ``final_x`` has shape (n, d); ``final_f``, ``final_grad_norm`` and
    ``iterations`` (the steps each run took) have shape (n,).
    ``stop_reasons`` is a list of n ``StopReason``s.
    """

    __slots__ = ("final_x", "final_f", "final_grad_norm", "iterations", "stop_reasons")


def run_many(gmap: GradientMap, x0s, policy: StopPolicy | None = None) -> BatchResult:
    """Advance many starting points at once, with ``run``'s stop rule.

    Each row's final state matches a ``run`` from that row bit for bit;
    only the dense history is skipped.  ``policy`` None means
    ``DEFAULT_POLICY``.
    """
    policy = _check_policy(policy)
    obj = gmap.objective
    # row-major whatever the input's layout: from _PAIRWISE_FROM columns on, numpy sums
    # a row of a column-major batch in another order than run's point
    x0s = np.ascontiguousarray(_check_vector(x0s, ("n", obj.dimension), "x0s"))
    if not obj.lipschitz_global and not np.all(obj.contains(x0s)):
        raise ContractViolationError("some starting points lie outside domain_box")
    return _descend(gmap, x0s, policy)


# Stop codes of the stepping loop; a code indexes this tuple.
_STOP_CODE_REASONS = tuple(StopReason)
_STOP_CODES = [np.int8(code) for code in range(len(_STOP_CODE_REASONS))]
_RUNNING = np.int8(-1)
# Relative slack of the whole-batch divergence bound; the rounding of a
# d-term row norm is about d * eps relative, far below it.
_BOUND_SLACK = 1e-9
# Entries below this magnitude cannot overflow the squares of a row norm.
_NORM_SAFE = 1e150
# Iterates that one block of a single active row holds, at most (never
# past the cap), so a single row steps at most _BLOCK_ROWS - 1 iterates
# past its stop; two or more active rows take one step a block.
_BLOCK_ROWS = 64


def _squared_tolerance(tol: float) -> float:
    """The largest double t with sqrt(t) <= tol; tol itself when it is inf, negative or NaN.

    ``sqrt`` is correctly rounded and so monotone, hence for every double
    s >= 0, NaN and inf included, ``s <= t`` holds exactly when ``sqrt(s)
    <= tol`` does: the loops test tolerances on squared norms.
    """
    tol = float(tol)
    if tol == math.inf or not tol >= 0:
        # every square passes inf, and none a negative or NaN tolerance
        return tol
    t = min(tol * tol, sys.float_info.max)
    while math.sqrt(t) > tol:
        t = math.nextafter(t, 0.0)
    while (up := math.nextafter(t, math.inf)) < math.inf and math.sqrt(up) <= tol:
        t = up
    return t


def _columns_within(x, lo: float, hi: float) -> bool:
    """True when every entry of x lies in [lo, hi]; False on a NaN.

    One ``min`` and one ``max`` of the whole contiguous block; a NaN
    propagates through both.
    """
    return bool(lo <= x.min() and x.max() <= hi)


def _descend(gmap: GradientMap, x0s: np.ndarray, policy: StopPolicy, iterates=None) -> BatchResult:
    """The stepping loop of ``run`` and ``run_many``, on a validated (n, d) batch.

    Returns a ``BatchResult``.  Rows are stepped with elementwise
    arithmetic, so no row's results depend on the rest of the batch.

    The loop steps a block of b iterates of every active row, calling
    only ``_gradient`` and the step, and then settles the stop rule for
    the whole block at once: one call each gives f, the squared gradient
    norms, the finiteness screen and the tolerance, divergence, cap and
    box tests of all b x m iterates.  Each row stops at its first stopping
    iterate, in the precedence order of ``StopReason``; the steps
    it took past that iterate are thrown away.  The stop rule only
    watches the orbit, so this changes no iterate, value or norm.  A
    non-finite value or gradient raises at the first iterate where a row
    still running shows one (the lowest trial first), as a loop that
    settled every step would.  The width b depends only on the active
    row count m: two or more rows take one numpy step (b = 1), and one
    row a block of b = 64 steps from its first, cut to end at the
    iteration cap.  Only a single row thus steps past the iterate it
    stops at, by at most 63 iterates.

    A block of one row (a ``run``, or the last row of a batch) is stepped
    in Python floats through ``Objective._point_gradient`` and made into
    the block's arrays once, which saves about eight numpy calls per step.
    Its bits are the numpy step's: ``_point_gradient`` equals
    ``_gradient`` on the row bit for bit, and ``x - alpha * g`` is the
    same two correctly rounded double operations in Python as in numpy,
    both of which overflow silently here.

    The tolerance test is ``sq <= tol2`` on the squared norms, which is
    ``sqrt(sq) <= tol`` bit for bit (``_squared_tolerance``), so square
    roots are taken only for the stopping iterates.  On an objective
    certified finite on its box, a block inside the box with finite
    squared norms needs no finiteness screen, so f is computed only at the
    stopping iterates; when, besides, no squared norm reaches ``tol2``, no
    row can diverge and the cap is not in the block, the loop advances
    without building any mask.  Objectives without the certificate,
    blocks outside the box and the quadratics, whose rows may leave it,
    take f for the whole block and screen it.

    The divergence and box tests are first settled for the whole block
    with one ``min`` and one ``max`` (``_columns_within``) against the
    bounds every column shares: the divergence cube, and the tightest
    interval inside every column's box interval, worked out once before
    the loop.  They fall back to the exact per-row tests only when that
    cannot decide, so a box with unequal bounds per column falls back
    sooner with the same results.  Stop codes are written in reverse
    precedence onto an ``int8`` array, skipping a test that cannot hit.
    The stopped rows and the survivors are selected with ``take`` and
    ``compress``, never with a boolean mask on 2-D rows, which is about
    ten times slower than ``compress``.

    Given a list ``iterates``, ``x0s`` holds one row (a ``run``), and the
    iterates of each block of it are appended, including the steps past
    the stop, so nothing is sized by ``policy.max_iters``.  Overflow in
    the arithmetic is not reported as a numpy warning: the finiteness
    screen turns it into a ``NumericalFailureError``.
    """
    obj = gmap.objective
    value, gradient, alpha = obj._value, obj._gradient, gmap.alpha
    point_gradient = obj._point_gradient
    tol2 = _squared_tolerance(policy.tol)
    radius, max_iters = policy.divergence_radius, policy.max_iters
    n, d = x0s.shape
    final_x = np.zeros_like(x0s)
    final_f = np.zeros(n)
    final_gn = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    codes = np.full(n, _RUNNING, dtype=np.int8)

    # Rows whose entries all lie in [-cube, cube] have norm below the
    # divergence radius.  A box-local certificate keeps the rows inside
    # the box, which settles divergence too when the box fits the cube.
    cube = float(min(radius, _NORM_SAFE) / (np.sqrt(d) * (1.0 + _BOUND_SLACK)))
    check_box = not obj.lipschitz_global
    certified = check_box and obj.finite_on_box
    box = obj.domain_box
    box_lo, box_hi = float(box[:, 0].max()), float(box[:, 1].min())
    box_in_cube = bool(np.all(box[:, 0] >= -cube) and np.all(box[:, 1] <= cube))

    x = x0s
    active = np.arange(n)
    k = 0
    with np.errstate(all="ignore"):
        while active.size:
            m = active.size
            # Iterates k .. k + b - 1 of every row in xs, their gradients
            # in gs, and the start of the next block in x_next.
            if m > 1:
                b = 1
                g = gradient(x)
                xs, gs, x_next = x[None], g[None], x - alpha * g
            else:  # in Python floats, bit for bit the numpy step above
                b = min(_BLOCK_ROWS, max_iters - k + 1)  # the block ends at the cap
                p = x[0].tolist()
                xs, gs = list(p), []  # flat, as numpy converts them fastest
                for _ in range(b):
                    g = point_gradient(p)
                    gs += g
                    p = [v - alpha * g_i for v, g_i in zip(p, g)]
                    xs += p
                xs = np.array(xs).reshape(b + 1, 1, d)
                gs = np.array(gs).reshape(b, 1, d)
                xs, x_next = xs[:b], xs[b]
            if iterates is not None:
                iterates.append(xs[:, 0])

            flat = xs.reshape(-1, d)
            sq = _sum_squares(gs)
            in_box = check_box and _columns_within(flat, box_lo, box_hi)
            div_free = (in_box and box_in_cube) or _columns_within(flat, -cube, cube)
            capped = k + b - 1 == max_iters
            # On the box of a certified objective every value and gradient
            # is finite, so f is needed only at the stops; a finite sq.max()
            # also rules out an overflowed norm, and NaN fails both tests.
            lean = certified and in_box and sq.max() < np.inf
            if lean:
                if div_free and not capped and sq.min() > tol2:
                    x = x_next
                    k += b
                    continue
                f, suspect = None, False
            else:
                f = value(flat).reshape(b, m)
                # A finite norm implies a finite gradient, so this flags
                # every non-finite iterate; an overflowed norm flags a
                # finite one too, which the exact test below lets through.
                suspect = ~(np.isfinite(f) & np.isfinite(sq))
            tol_hit = sq <= tol2
            flagged = tol_hit | suspect

            div_hit = box_exit = False
            if not div_free:
                div_hit = _row_norms(xs) >= radius
                flagged |= div_hit
            if check_box and not in_box:
                box_exit = ~obj.contains(xs)
                flagged |= box_exit

            if capped or flagged.any():
                if capped and b > 1:
                    capped = np.arange(k, k + b)[:, None] == max_iters
                # each code overwrites the ones after it in precedence
                code = np.full((b, m), _RUNNING, dtype=np.int8)
                for hit, stop_code in zip((box_exit, capped, div_hit, tol_hit), _STOP_CODES[::-1]):
                    if hit is not False:
                        np.copyto(code, stop_code, where=hit)
                done = code != _RUNNING
                if suspect is not False and suspect.any():
                    bad = ~(np.isfinite(f) & np.isfinite(gs).all(axis=-1))
                    # a row is not checked past the iterate it stops at
                    bad[1:] &= ~np.logical_or.accumulate(done[:-1], axis=0)
                    if bad.any():
                        # the first bad iterate, then the lowest trial
                        j, r = divmod(int(np.argmax(bad)), m)
                        trial = None if iterates is not None else int(active[r])
                        raise NumericalFailureError(
                            f"non-finite value or gradient at iterate {k + j}", k + j, trial)
                # the stopped rows, and their stopping iterates as rows
                # of the block flattened to (b * m, d)
                stopped = done.any(axis=0)
                rows = np.flatnonzero(stopped)
                at = done[:, rows].argmax(axis=0)
                sel = at * m + rows
                idx = active[rows]
                at_stop = flat.take(sel, axis=0)
                final_x[idx] = at_stop
                final_f[idx] = value(at_stop) if f is None else f.ravel()[sel]
                final_gn[idx] = np.sqrt(sq.ravel()[sel])
                iterations[idx] = k + at
                codes[idx] = code.ravel()[sel]
                keep = ~stopped
                active = active[keep]
                x = np.compress(keep, x_next, axis=0)
            else:
                x = x_next
            k += b

    reasons = np.array(_STOP_CODE_REASONS, dtype=object)[codes].tolist()
    return BatchResult(final_x, final_f, final_gn, iterations, reasons)


def closed_form_quadratic(lambdas, alpha: float, x0, k: int) -> np.ndarray:
    """Exact k-th iterate on a diagonal quadratic: (1 - alpha*lambda_i)^k x0_i.

    The factor is applied k times rather than raised to the k-th power in
    one call: for dyadic step sizes the repeated product rounds exactly as
    the engine's per-step arithmetic does, which keeps growing modes in
    lockstep at the oracle's 1e-12 absolute tolerance.
    """
    k = _check_count(k, "k")
    alpha = _check_real(alpha, "alpha")
    lambdas = _check_vector(lambdas, ("d",), "lambdas")
    out = _check_vector(x0, lambdas.shape, "x0")
    factors = 1.0 - alpha * lambdas
    for _ in range(k):
        out = factors * out
    return out


# The rounding ``descent_violations`` forgives a step's decrease.
DESCENT_SLACK = 1e-12


def descent_violations(traj: Trajectory, objective: Objective) -> int:
    """Count steps violating the guaranteed decrease

        f(x_{k+1}) <= f(x_k) - alpha (1 - alpha L / 2) ||grad f(x_k)||^2

    by more than ``DESCENT_SLACK``.  Steps whose endpoints leave the
    certified box are excluded when the Lipschitz bound is box-local.  An
    objective whose dimension is not the trajectory's is refused.
    """
    if objective.dimension != traj.iterates.shape[1]:
        raise ContractViolationError(
            f"objective must have the trajectory's dimension {traj.iterates.shape[1]}, "
            f"got {objective.dimension}")
    lip = objective.lipschitz_bound()
    coeff = traj.alpha * (1.0 - traj.alpha * lip / 2.0)
    decrease = traj.f_values[:-1] - coeff * traj.grad_norms[:-1] ** 2
    violated = traj.f_values[1:] > decrease + DESCENT_SLACK
    if not objective.lipschitz_global:
        inside = objective.contains(traj.iterates)
        violated &= inside[:-1] & inside[1:]
    return int(np.count_nonzero(violated))
