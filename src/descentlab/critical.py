"""Critical-point search, second-order classification, and stable subspaces.

A critical point is a root of the gradient, equivalently a fixed point of
the gradient map.  Classification reads the Hessian spectrum through a
degeneracy tolerance, and the stable subspace collects the Hessian
eigendirections whose gradient-map multiplier 1 - alpha*lambda does not
exceed one.
"""

from __future__ import annotations

import os

import numpy as np

from .engine import (
    BatchResult, GradientMap, StopPolicy, StopReason, _backtrack, _box_samples, _check_policy,
    _row_norms, _solve_rows, _squared_tolerance, _sum_squares, run_many,
)
from .errors import (BasinAmbiguityError, ContractViolationError, NumericalFailureError,
                     _check_count, _check_real)
from .fileio import Record, atomic_write_columns
from .jacobi import eigh_jacobi
from .zoo import DEGENERACY_TOL, Objective, _check_vector, _classify_spectrum

__all__ = [
    "CriticalPointList", "CriticalPointRecord", "StableSetSample", "classify",
    "find_critical_points", "sample_local_stable_set", "stable_subspace",
]

DEDUP_TOL = 1e-6
# Iterations of one Newton search, at most.  On the degenerate root of a
# quartic Newton contracts only linearly, by 2/3 per step and so the
# gradient by (2/3)**3; the steepest quartic the constructors accept has
# a gradient of about 1e154 on its box (zoo._refuse_overflow), which takes
# about 311 iterations to fall below the default tolerance of 1e-10.
NEWTON_BUDGET = 400
# Points per axis of a stable-set grid, at most.  Stepped in chunks, a
# stable-set command peaks at about 70 bytes per grid point above the 36
# MB of the interpreter and numpy (72 MB at grid 801, 252 MB at this cap;
# 2 cores, Python 3.11.7, numpy 2.4.6); a larger grid is refused before
# any work rather than running out of memory after the critical-point
# search.
MAX_GRID = 2001
# Starts a census or a stable-set grid steps and labels as one batch.
# Every step's masks and compactions walk arrays of all a batch's rows.
# In alternating pairs on the nesterov census (2 cores), 1e6 trials took a
# median 7.8 s as one batch and 3.2 s in chunks of 10k or 20k rows (3.9 s
# at 50k), and peaked at 265 MB against 100 MB.  With two threads, chunks
# of 10k, 20k and 50k rows took 4.3, 2.8 and 2.3 s, against 3.4 s for two
# batches of half the trials: 20k is the fastest serial size that still
# gains from threads.
CHUNK = 20_000


class CriticalPointRecord(Record):
    """Everything classify() knows about one critical point.

    ``hessian_eigenvalues`` are ascending and ``hessian_eigenvectors[:, i]``
    is the unit eigenvector for the i-th of them.  ``stable_subspace_basis``
    holds, as columns, the eigenvectors with eigenvalue >= -band, the
    degeneracy band ``classify`` reads the spectrum with (``degeneracy_tol``
    is the caller's value, not the band); these are exactly the directions
    where the gradient-map Jacobian has multiplier <= 1 (up to the same
    band), for every admissible step size.  ``is_strict_saddle`` is the raw
    min-eigenvalue test and is also true for local maxima; ``is_degenerate``
    is true when any eigenvalue sits inside the band, even if a negative
    eigenvalue decided the headline classification.
    """

    __slots__ = ("location", "grad_norm", "hessian_eigenvalues", "hessian_eigenvectors",
                 "classification", "is_strict_saddle", "is_degenerate", "stable_subspace_basis",
                 "stable_dimension", "degeneracy_tol")
    _defaults = {"degeneracy_tol": DEGENERACY_TOL}

    @property
    def dimension(self) -> int:
        return self.location.shape[0]


def _check_records(records, dimension: int, name: str = "records") -> list:
    """``records`` as a list of ``CriticalPointRecord``s whose ``location``
    has shape ``(dimension,)``, or a contract violation naming ``name``.

    The one rule for record arguments; a single record is checked as
    ``[record]``.
    """
    try:
        records = list(records)
    except TypeError:
        records = None
    if records is None or not all(isinstance(record, CriticalPointRecord)
                                  and np.shape(record.location) == (dimension,)
                                  for record in records):
        raise ContractViolationError(
            f"{name} must be of type CriticalPointRecord with location of shape ({dimension},)")
    return records


def _degeneracy_band(objective: Objective, x: np.ndarray, hessian: np.ndarray,
                     degeneracy_tol: float) -> float:
    """The half-width of the near-zero eigenvalue band at the critical point
    ``x``, whose Hessian is ``hessian``.

    It is ``degeneracy_tol`` plus how far the Hessian moves within DEDUP_TOL
    of ``x``, the distance below which the search does not tell roots
    apart: an eigenvalue smaller than that move has no sign the root's
    location can vouch for.  The move is the largest row-sum norm of H(x +-
    DEDUP_TOL e_i) - H(x), which bounds how far each eigenvalue shifts
    between ``x`` and those 2d points (Weyl).  It depends on neither the
    domain box nor the other eigenvalues: it is zero where the Hessian is
    constant, so a quadratic keeps the absolute band, and it is about 3e-12
    at the saddle of ``nesterov`` on any box.  At the polished origin of
    ``quartic:[[1e100]]`` (x about 6.5e-38) the eigenvalue is about 5e26,
    far outside 1e-8, but the move is about 1.2e89.
    """
    steps = DEDUP_TOL * np.eye(x.shape[0])
    change = objective._hessian(x + np.concatenate([steps, -steps])) - hessian
    return degeneracy_tol + float(np.max(np.sum(np.abs(change), axis=-1)))


def classify(
    objective: Objective,
    x,
    degeneracy_tol: float = DEGENERACY_TOL,
    grad_tol: float = 1e-6,
) -> CriticalPointRecord:
    """Build the full record for a point already known to be critical.

    Raises a contract violation if the gradient norm exceeds ``grad_tol``:
    the spectrum of a non-critical point says nothing about the dynamics.
    An eigenvalue is near zero when its magnitude is at most the band
    ``degeneracy_tol`` plus how far the Hessian moves within ``DEDUP_TOL``
    of ``x`` (``_degeneracy_band``), and that band decides the class,
    ``is_strict_saddle``, ``is_degenerate`` and the stable subspace.  On a
    quadratic the band is ``degeneracy_tol``; at the flat origin of a steep
    quartic it grows with the quartic.
    A negative or NaN tolerance is refused before any work.
    """
    _check_real(degeneracy_tol, "degeneracy_tol", "non-negative")
    _check_real(grad_tol, "grad_tol", "non-negative")
    x = _check_vector(x, (objective.dimension,), "x")
    # an overflowed gradient or norm is refused below, so it warns of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        grad_norm = float(_row_norms(objective.gradient(x)))
    if not np.isfinite(grad_norm) or grad_norm > grad_tol:
        raise ContractViolationError(
            f"point {x.tolist()} is not critical: grad norm {grad_norm:.3e} > {grad_tol:.3e}"
        )
    hessian = objective.hessian(x)
    w, v = eigh_jacobi(hessian)
    band = _degeneracy_band(objective, x, hessian, degeneracy_tol)
    stable_mask = w >= -band
    basis = v[:, stable_mask]
    return CriticalPointRecord(
        location=x,
        grad_norm=grad_norm,
        hessian_eigenvalues=w,
        hessian_eigenvectors=v,
        classification=_classify_spectrum(w, band),
        is_strict_saddle=bool(w[0] < -band),
        is_degenerate=bool(np.any(np.abs(w) <= band)),
        stable_subspace_basis=basis,
        stable_dimension=int(np.count_nonzero(stable_mask)),
        degeneracy_tol=float(degeneracy_tol),
    )


class CriticalPointList(list):
    """Records found by the multistart search, plus search accounting."""

    def __init__(self, records=(), n_seeds: int = 0, n_dropped: int = 0):
        super().__init__(records)
        self.n_seeds = n_seeds
        self.n_dropped = n_dropped


def _newton_roots(objective: Objective, seeds: np.ndarray, tol: float,
                  max_iters: int = NEWTON_BUDGET):
    """Newton iteration on grad f = 0 with a squared-gradient-norm merit guard.

    Runs from every row of ``seeds`` at once and returns, per seed, the
    refined root or None.  The gradient tolerance alone is a weak
    certificate at degenerate roots (Newton contracts only linearly
    there), so after hitting it a row keeps polishing until its step
    stalls below 1e-12; that pins locations to machine scale and lets
    deduplication merge what would otherwise look like a cloud of roots.

    Each row takes exactly the steps it would take alone: its own
    backtracking line search, and a steepest-descent direction on the
    merit wherever its Hessian is singular.  Each round drops the rows
    that have left, in one compaction, stops once the budget is spent, and
    steps the rest.  A row leaves when its step is refused, when it stalls
    after hitting the tolerance, or when the budget is spent, and leaves
    as a root if it hit the tolerance before its last step.  That is read
    fresh each round as ``merit <= tol2`` on the squared gradient norm,
    which is ``sqrt(merit) <= tol`` bit for bit (``_squared_tolerance``):
    a step is taken only if it strictly lowers the merit, so a row under
    the tolerance stays under it.
    """
    gradient, hessian = objective._gradient, objective._hessian
    tol2 = _squared_tolerance(tol)
    roots = [None] * seeds.shape[0]
    active, x = np.arange(seeds.shape[0]), seeds
    grad = gradient(x)
    merit = _sum_squares(grad)
    # only a seed can have a non-finite merit: the line search accepts finite ones
    left, hit = ~np.isfinite(merit), False
    for iteration in range(max_iters + 1):
        left |= iteration == max_iters  # a spent budget ends every row
        if left.any():
            for i in np.flatnonzero(left & hit):
                roots[active[i]] = x[i].copy()
            keep = ~left
            active, x, grad, merit = active[keep], x[keep], grad[keep], merit[keep]
        if not active.size:
            break
        hit = merit <= tol2
        hess = hessian(x)
        direction, singular = _solve_rows(hess, grad)
        pending = np.arange(active.size)
        if singular is not None:
            for i in np.flatnonzero(singular):
                direction[i] = hess[i] @ grad[i]
            # a zero fallback direction ends the row where it stands
            pending = np.flatnonzero(~singular | direction.any(axis=-1))

        # a row whose step is refused keeps its point in the copies
        out = x.copy(), grad.copy(), merit.copy()
        accepted = _backtrack(
            lambda trial, rows: gradient(trial), x, direction, pending, 40,
            lambda trial_merit, rows, step: trial_merit < merit[rows], out,
        )
        moved = np.max(np.abs(out[0] - x), axis=-1)
        x, grad, merit = out
        left = ~accepted | (hit & (moved <= 1e-12))
    return roots


def find_critical_points(
    objective: Objective,
    n_seeds: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    degeneracy_tol: float = DEGENERACY_TOL,
    dedup_tol: float = DEDUP_TOL,
) -> CriticalPointList:
    """Multistart Newton search for critical points inside the domain box.

    Seeds are uniform on the domain box and run through one batched
    damped-Newton pass.  Converged roots closer than ``dedup_tol`` in the
    infinity norm are merged; starts that fail to converge are dropped and
    counted on the returned list.  Records come back sorted by location so
    the output is reproducible.  Each root is classified as ``classify``
    does: against ``degeneracy_tol`` plus how far the Hessian moves within
    ``DEDUP_TOL`` of the root.  A negative or NaN tolerance is refused
    before any work.
    """
    for value, name in ((tol, "tol"), (degeneracy_tol, "degeneracy_tol"),
                        (dedup_tol, "dedup_tol")):
        _check_real(value, name, "non-negative")
    seeds = _box_samples(seed, n_seeds, objective.domain_box, "n_seeds")

    found = [root for root in _newton_roots(objective, seeds, tol) if root is not None]
    n_dropped = seeds.shape[0] - len(found)
    # Keep the first converged root of each cluster: the first root not
    # yet merged is kept, and every later one within dedup_tol of it is
    # merged, in one comparison per kept root.
    rest = np.array(found).reshape(-1, objective.dimension)
    roots = []
    while rest.shape[0]:
        root, rest = rest[0], rest[1:]
        roots.append(root)
        rest = rest[~(np.abs(rest - root) <= dedup_tol).all(axis=-1)]
    roots.sort(key=lambda r: tuple(np.round(r, 9)))
    records = [
        classify(objective, root, degeneracy_tol=degeneracy_tol, grad_tol=max(tol, 1e-9))
        for root in roots
    ]
    return CriticalPointList(records, n_seeds=n_seeds, n_dropped=n_dropped)


def stable_subspace(gmap: GradientMap, record: CriticalPointRecord) -> np.ndarray:
    """Orthonormal basis (columns) for the gradient-map stable subspace.

    Eigenvectors of Dg(x*) = I - alpha * H(x*) whose eigenvalue is at most
    1 + alpha * band, the band ``classify`` read the Hessian with.  Computed
    from the Jacobian directly rather than copied off the record, so the
    spectrum-mapping relation between the two is something callers can
    check, not an artifact of sharing.
    """
    _check_records([record], gmap.objective.dimension, "record")
    x = record.location
    band = _degeneracy_band(gmap.objective, x, gmap.objective.hessian(x), record.degeneracy_tol)
    mu, v = eigh_jacobi(gmap.jacobian(x))
    keep = mu <= 1.0 + gmap.alpha * band
    return v[:, keep]


def _settled(stop_reasons, final_grad_norm, tol) -> np.ndarray:
    """Which final states a critical-point record may claim, as booleans.

    A final state has settled if it stopped neither Diverged nor
    LeftDomainBox and its gradient norm is not above ``tol``; any other
    is Diverged, LeftBox or Unresolved whatever the records are, so the
    records are read only for a settled one.
    """
    reasons = np.asarray(stop_reasons, dtype=object)
    return ((reasons != StopReason.DIVERGED.value) & (reasons != StopReason.LEFT_DOMAIN_BOX.value)
            & ~(np.asarray(final_grad_norm) > tol))


def _basin_codes(result: BatchResult, records, tol) -> np.ndarray:
    """The basin of each final state of a batch, as integer codes.

    Code ``i < len(records)`` is record i; codes ``len(records)`` + 0, 1
    and 2 are Diverged, LeftBox and Unresolved (see
    ``experiments._label_table``).  A row that has not settled (see
    ``_settled``) is never a record's; a settled one is Unresolved unless
    a record lies within ``tol`` of it (infinity norm).  A row within
    ``tol`` of two records raises an ambiguity error: the tolerance no
    longer separates them.
    """
    n_records = len(records)
    reasons = np.asarray(result.stop_reasons, dtype=object)
    codes = np.full(reasons.shape[0], n_records + 2, dtype=np.min_scalar_type(n_records + 2))
    codes[reasons == StopReason.DIVERGED.value] = n_records
    codes[reasons == StopReason.LEFT_DOMAIN_BOX.value] = n_records + 1
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


def _label_starts(gmap: GradientMap, x0s: np.ndarray, policy: StopPolicy, records, tol,
                  n_jobs: int = 1):
    """Step the rows of ``x0s`` and label each final state against ``records``.

    Returns the basin codes (``_basin_codes`` with ``tol``), the iteration
    counts and the final gradient norms of the rows, in row order.  The
    rows are cut in order into chunks of ``CHUNK``, each stepped by
    ``run_many`` and labelled as one batch; an empty ``x0s`` is one empty
    chunk.  The chunks are mapped by ``min(n_jobs, os.cpu_count(), number
    of chunks)`` threads, or without a thread pool when that is 1.  The
    stepping is elementwise, so the result is identical for any chunk size
    and thread count.  A ``NumericalFailureError`` names the row of
    ``x0s``; it is the one of the first failing chunk in row order, for
    every ``n_jobs``.  ``run_many`` checks only the chunk it is given, so
    a caller whose starts may leave the domain box refuses them first.
    """
    def label(start):
        try:
            result = run_many(gmap, x0s[start:start + CHUNK], policy)
        except NumericalFailureError as exc:
            exc.trial += start
            raise
        return _basin_codes(result, records, tol), result.iterations, result.final_grad_norm

    starts = range(0, max(x0s.shape[0], 1), CHUNK)
    workers = min(n_jobs, os.cpu_count() or 1, len(starts))
    if workers == 1:
        labelled = map(label, starts)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            labelled = list(pool.map(label, starts))
    return [np.concatenate(column) for column in zip(*labelled)]


class StableSetSample(Record):
    """Grid sample of the local stable set around a strict saddle.

    ``points`` is every sampled initial condition (grid order), ``converged``
    marks those whose trajectory settled at the saddle, and
    ``max_subspace_distance`` is the largest Euclidean distance from a
    converged point to the affine space x* + E_s (zero when nothing
    converged).
    """

    __slots__ = ("center", "points", "converged", "grid_spacing", "max_subspace_distance")

    @property
    def converged_points(self) -> np.ndarray:
        return self.points[self.converged]

    def to_csv(self, path) -> None:
        d = self.points.shape[1]
        header = [f"x_{i + 1}" for i in range(d)] + ["converged_to_saddle"]
        atomic_write_columns(path, header, [*self.points.T, self.converged])


def grid_spacing(radius: float, grid: int, dimension: int = 2) -> float:
    """The spacing of a stable-set grid of ``grid`` points per axis on [-radius, radius].

    Refuses an objective ``dimension`` other than 2, a negative radius, a
    grid below one point or above ``MAX_GRID`` points, and a radius whose
    spacing overflows.  The one check of these inputs, so the CLI can
    refuse them before any search.
    """
    if dimension != 2:
        raise ContractViolationError("grid sampling is implemented for dimension 2 only")
    radius = _check_real(radius, "radius", "non-negative")
    grid = _check_count(grid, "grid", least=1, most=MAX_GRID)
    spacing = 0.0 if radius == 0.0 else 2.0 * radius / max(grid - 1, 1)
    if not np.isfinite(spacing):
        raise ContractViolationError(f"radius {radius} is too large to space a grid")
    return spacing


def sample_local_stable_set(
    gmap: GradientMap,
    record: CriticalPointRecord,
    radius: float,
    grid: int = 41,
    policy: StopPolicy | None = None,
    tol: float = 1e-6,
) -> StableSetSample:
    """Run the engine from a grid around a strict saddle and keep what sticks.

    The grid spans [-radius, radius] per axis, trimmed to the closed ball;
    offsets are built symmetrically so the center row sits exactly on the
    invariant axes, and only an odd ``grid`` has a row and a column through
    the saddle (on nesterov at radius 0.5, 0 of the 1184 points of grid 40
    converge and 41 of the 1257 of grid 41).  The grid is stepped and
    labelled as a census is (``_label_starts``, serially), against the
    saddle alone: a point counts as converged when its run neither
    diverged nor left the domain box and ends with a gradient norm at most
    ``tol`` within ``tol`` (infinity norm) of the saddle, whether or not
    it stopped on the gradient certificate.  A grid that leaves a
    box-local objective's domain box, a negative or NaN ``tol`` and a
    ``policy`` that is not a ``StopPolicy`` (None: ``DEFAULT_POLICY``) are
    refused before any work.
    """
    _check_real(tol, "tol", "non-negative")
    policy = _check_policy(policy)
    _check_records([record], gmap.objective.dimension, "record")
    if not record.is_strict_saddle:
        raise ContractViolationError("stable-set sampling expects a strict saddle record")
    spacing = grid_spacing(radius, grid, record.dimension)
    center = record.location
    if radius == 0.0:
        points = center[None, :].copy()
    else:
        steps = np.arange(grid) - (grid - 1) / 2.0
        sx, sy = (s.ravel() for s in np.meshgrid(steps, steps, indexing="ij"))
        # trimmed in units of the spacing, where the test is exact and
        # cannot overflow: steps are multiples of 1/2
        inside = sx * sx + sy * sy <= ((grid - 1) / 2.0) ** 2
        points = center + spacing * np.stack([sx[inside], sy[inside]], axis=1)

    objective = gmap.objective
    if not objective.lipschitz_global and not np.all(objective.contains(points)):
        raise ContractViolationError("some starting points lie outside domain_box")
    converged = _label_starts(gmap, points, policy, [record], tol)[0] == 0

    max_distance = 0.0
    if np.any(converged):
        basis = record.stable_subspace_basis
        rel = points[converged] - center
        residual = rel - (rel @ basis) @ basis.T
        max_distance = float(np.max(_row_norms(residual)))

    return StableSetSample(
        center=center.copy(),
        points=points,
        converged=converged,
        grid_spacing=spacing,
        max_subspace_distance=max_distance,
    )
