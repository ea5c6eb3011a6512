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
    GradientMap, StopPolicy, StopReason, _backtrack, _box_samples, _check_policy,
    _refuse_starts_outside_box, _row_norms, _solve_rows, _squared_tolerance, _sum_squares,
    run_many,
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

# Roots of the search closer than DEDUP_TOL in the infinity norm are one
# root, so the degeneracy band reads how the Hessian moves over it too.
DEDUP_TOL = 1e-6
# The gradient norm a Newton search must reach for a root.
NEWTON_TOL = 1e-10
# The gradient norm ``classify`` accepts at a critical point, at most.
GRAD_TOL = 1e-6
# Iterations of one Newton search, at most.  On the degenerate root of a
# quartic Newton contracts only linearly, by 2/3 per step and so the
# gradient by (2/3)**3; the steepest quartic the constructors accept has
# a gradient of about 1e154 on its box (zoo._refuse_overflow), which takes
# about 311 iterations to fall below NEWTON_TOL.
NEWTON_BUDGET = 400
# Points per axis of a stable-set grid, at most.  Stepped in chunks, a
# stable-set command peaks at about 24 bytes per grid point above the 33
# MB of one on grid 41 (45 MB at grid 801, 108 MB at this cap; child
# getrusage, 2 cores, Python 3.11.7, numpy 2.4.6); a larger grid is
# refused before any work rather than running out of memory after the
# critical-point search.
MAX_GRID = 2001
# Starts of a 1-D or 2-D census or stable-set grid that are stepped and
# labelled as one batch; a d-D chunk has 2 * CHUNK // d rows, the same
# 2 * CHUNK coordinates.  Every step's masks and compactions walk arrays
# of all a batch's rows.  In alternating pairs on the nesterov census (2
# cores), 1e6 trials took a median 7.8 s as one batch and 3.2 s in chunks
# of 10k or 20k rows (3.9 s at 50k), and peaked at 265 MB against 100 MB.
# With two threads, chunks of 10k, 20k and 50k rows took 4.3, 2.8 and
# 2.3 s, against 3.4 s for two batches of half the trials: 20k is the
# fastest serial size that still gains from threads.  A 100-D census of
# 2e5 trials took 2.4-2.8 s and peaked at 281 MB in 20k-row chunks, and
# 1.3-1.8 s and 216 MB in chunks of 400 rows (child getrusage, Python
# 3.11.7, numpy 2.4.6).
CHUNK = 20_000
# The basin tolerance of ``_basin_codes``, for a census and a stable-set
# grid alike, and the labels of a final state that lands at no record.
BASIN_TOL = 1e-6
LABEL_DIVERGED = "Diverged"
LABEL_LEFT_BOX = "LeftBox"
LABEL_UNRESOLVED = "Unresolved"


class CriticalPointRecord(Record):
    """Everything classify() knows about one critical point.

    ``hessian_eigenvalues`` are ascending and ``hessian_eigenvectors[:, i]``
    is the unit eigenvector for the i-th of them.  ``stable_subspace_basis``
    holds, as columns, the eigenvectors with eigenvalue >= -band, the
    degeneracy band ``classify`` reads the spectrum with (``degeneracy_tol``
    is ``DEGENERACY_TOL``, the band's absolute part); these are exactly the
    directions where the gradient-map Jacobian has multiplier <= 1 (up to
    the same band), for every admissible step size.  ``is_strict_saddle`` is the raw
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


def classify(objective: Objective, x) -> CriticalPointRecord:
    """Build the full record for a point already known to be critical.

    Raises a contract violation if the gradient norm exceeds ``GRAD_TOL``:
    the spectrum of a non-critical point says nothing about the dynamics.
    An eigenvalue is near zero when its magnitude is at most the band
    ``DEGENERACY_TOL`` plus how far the Hessian moves within ``DEDUP_TOL``
    of ``x`` (``_degeneracy_band``), and that band decides the class,
    ``is_strict_saddle``, ``is_degenerate`` and the stable subspace.  On a
    quadratic the band is ``DEGENERACY_TOL``; at the flat origin of a steep
    quartic it grows with the quartic.
    """
    x = _check_vector(x, (objective.dimension,), "x")
    # an overflowed gradient or norm is refused below, so it warns of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        grad_norm = float(_row_norms(objective.gradient(x)))
    if not np.isfinite(grad_norm) or grad_norm > GRAD_TOL:
        raise ContractViolationError(
            f"point {x.tolist()} is not critical: grad norm {grad_norm:.3e} > {GRAD_TOL:.3e}"
        )
    hessian = objective.hessian(x)
    w, v = eigh_jacobi(hessian)
    band = _degeneracy_band(objective, x, hessian, DEGENERACY_TOL)
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
        degeneracy_tol=DEGENERACY_TOL,
    )


class CriticalPointList(list):
    """Records found by the multistart search, plus search accounting."""

    def __init__(self, records=(), n_seeds: int = 0, n_dropped: int = 0):
        super().__init__(records)
        self.n_seeds = n_seeds
        self.n_dropped = n_dropped


def _newton_roots(objective: Objective, seeds: np.ndarray):
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
    that have left, in one compaction, stops once the budget of
    ``NEWTON_BUDGET`` iterations is spent, and steps the rest.  A row leaves
    when its step is refused, when it stalls after hitting the tolerance
    ``NEWTON_TOL``, or when the budget is spent, and leaves as a root if it
    hit the tolerance before its last step.  That is read fresh each round
    as ``merit <= tol2`` on the squared gradient norm, which is
    ``sqrt(merit) <= NEWTON_TOL`` bit for bit (``_squared_tolerance``):
    a step is taken only if it strictly lowers the merit, so a row under
    the tolerance stays under it.
    """
    gradient, hessian = objective._gradient, objective._hessian
    tol2 = _squared_tolerance(NEWTON_TOL)
    roots = [None] * seeds.shape[0]
    active, x = np.arange(seeds.shape[0]), seeds
    grad = gradient(x)
    merit = _sum_squares(grad)
    # only a seed can have a non-finite merit: the line search accepts finite ones
    left, hit = ~np.isfinite(merit), False
    for iteration in range(NEWTON_BUDGET + 1):
        left |= iteration == NEWTON_BUDGET  # a spent budget ends every row
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


def find_critical_points(objective: Objective, n_seeds: int = 100,
                         seed: int = 0) -> CriticalPointList:
    """Multistart Newton search for critical points inside the domain box.

    Seeds are uniform on the domain box and run through one batched
    damped-Newton pass to a gradient norm of at most ``NEWTON_TOL``.
    Converged roots closer than ``DEDUP_TOL`` in the infinity norm are
    merged; starts that fail to converge are dropped and counted on the
    returned list.  Records come back sorted by location so the output is
    reproducible.  Each root is classified by ``classify``.
    """
    seeds = _box_samples(seed, n_seeds, objective.domain_box, "n_seeds")

    found = [root for root in _newton_roots(objective, seeds) if root is not None]
    n_dropped = seeds.shape[0] - len(found)
    # Keep the first converged root of each cluster: the first root not
    # yet merged is kept, and every later one within DEDUP_TOL of it is
    # merged, in one comparison per kept root.
    rest = np.array(found).reshape(-1, objective.dimension)
    roots = []
    while rest.shape[0]:
        root, rest = rest[0], rest[1:]
        roots.append(root)
        rest = rest[~(np.abs(rest - root) <= DEDUP_TOL).all(axis=-1)]
    roots.sort(key=lambda r: tuple(np.round(r, 9)))
    records = [classify(objective, root) for root in roots]
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


def _label_table(records) -> list:
    """The label of each code of ``_basin_codes``."""
    return [*range(len(records)), LABEL_DIVERGED, LABEL_LEFT_BOX, LABEL_UNRESOLVED]


def _settled(stop_reasons, final_grad_norm) -> np.ndarray:
    """Which final states a critical-point record may claim, as booleans.

    A final state has settled if it stopped neither Diverged nor
    LeftDomainBox and its gradient norm is not above ``BASIN_TOL``; any
    other is Diverged, LeftBox or Unresolved whatever the records are, so
    the records are read only for a settled one.
    """
    reasons = np.asarray(stop_reasons, dtype=object)
    return ((reasons != StopReason.DIVERGED.value) & (reasons != StopReason.LEFT_DOMAIN_BOX.value)
            & ~(np.asarray(final_grad_norm) > BASIN_TOL))


def _basin_codes(final_x, final_grad_norm, stop_reasons, records) -> np.ndarray:
    """The basin of each final state of a batch, as integer codes.

    The library's one basin rule: a final state lands at record i when
    its run neither diverged nor left the domain box and ends with a
    gradient norm at most ``BASIN_TOL`` within ``BASIN_TOL`` (infinity
    norm) of record i.  Code ``i < len(records)`` is record i; codes
    ``len(records)`` + 0, 1 and 2 are Diverged, LeftBox and Unresolved
    (``_label_table``), the last for a settled state (``_settled``) near
    no record.  A state within ``BASIN_TOL`` of two records raises an
    ambiguity error: the tolerance no longer separates them.
    """
    n_records = len(records)
    reasons = np.asarray(stop_reasons, dtype=object)
    codes = np.full(reasons.shape[0], n_records + 2, dtype=np.min_scalar_type(n_records + 2))
    codes[reasons == StopReason.DIVERGED.value] = n_records
    codes[reasons == StopReason.LEFT_DOMAIN_BOX.value] = n_records + 1
    settled = _settled(reasons, final_grad_norm)
    ambiguous = np.zeros_like(settled)
    for i, rec in enumerate(records):
        hit = settled & (np.abs(final_x - rec.location) <= BASIN_TOL).all(axis=-1)
        ambiguous |= hit & (codes < n_records)
        codes[hit] = i
    if np.any(ambiguous):
        t = int(np.argmax(ambiguous))
        matches = [i for i, rec in enumerate(records)
                   if np.max(np.abs(final_x[t] - rec.location)) <= BASIN_TOL]
        raise BasinAmbiguityError(
            f"final iterate within {BASIN_TOL} of records {matches}; "
            "basin tolerance is wider than the critical-point separation"
        )
    return codes


def _label_starts(gmap: GradientMap, x0s: np.ndarray, policy: StopPolicy, records,
                  n_jobs: int = 1):
    """Step the rows of ``x0s`` and label each final state against ``records``.

    Returns the chunks in row order, each a tuple of the basin codes
    (``_basin_codes``), the iteration counts and the final gradient norms
    of its rows; a caller concatenates the columns it reads.  The rows
    are cut in order into chunks of ``2 * CHUNK // max(d, 2)`` rows
    (``CHUNK`` up to 2-D), so a chunk holds at most ``2 * CHUNK``
    coordinates (320 KB) whatever the dimension d.  Each is stepped by
    ``run_many``, whose ``tracemalloc`` peak is 9.0x a 2-D batch's bytes
    and 5.1x a 100-D one's (``engine._descend``), so a chunk steps in
    about 3 MB at most, and labelled as one batch; an empty ``x0s`` is
    one empty chunk.  The chunks are mapped by ``min(n_jobs,
    os.cpu_count(), number of chunks)`` threads, or without a thread pool
    when that is 1; then each chunk is stepped as it is iterated, so a
    caller that keeps only the codes never holds every chunk's other
    columns.  The stepping is
    elementwise, so the result is identical for any chunk size and thread
    count.  A ``NumericalFailureError`` names the row of ``x0s``; it is
    the one of the first failing chunk in row order, for every
    ``n_jobs``.  ``run_many`` checks only the chunk it is given, so a
    caller whose starts may leave the domain box refuses them first.
    """
    rows = 2 * CHUNK // max(x0s.shape[1], 2)

    def label(start):
        try:
            result = run_many(gmap, x0s[start:start + rows], policy)
        except NumericalFailureError as exc:
            exc.trial += start
            raise
        codes = _basin_codes(result.final_x, result.final_grad_norm, result.stop_reasons, records)
        return codes, result.iterations, result.final_grad_norm

    starts = range(0, max(x0s.shape[0], 1), rows)
    workers = min(n_jobs, os.cpu_count() or 1, len(starts))
    if workers == 1:
        return map(label, starts)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(label, starts))


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
) -> StableSetSample:
    """Run the engine from a grid around a strict saddle and keep what sticks.

    The grid spans [-radius, radius] per axis, trimmed to the closed ball;
    offsets are built symmetrically so the center row sits exactly on the
    invariant axes, and only an odd ``grid`` has a row and a column through
    the saddle (on nesterov at radius 0.5, 0 of the 1184 points of grid 40
    converge and 41 of the 1257 of grid 41).  The grid is stepped and
    labelled as a census is (``_label_starts``, serially), against the
    saddle alone, so a point counts as converged exactly when a census
    trial from it would land at the saddle: its run neither diverged nor
    left the domain box and ends with a gradient norm at most
    ``BASIN_TOL`` within ``BASIN_TOL`` (infinity norm) of the saddle,
    whether or not it stopped on the gradient certificate.  A grid that
    leaves a box-local objective's domain box and a ``policy`` that is not
    a ``StopPolicy`` (None: ``DEFAULT_POLICY``) are refused before any
    work.
    """
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
        squares = steps * steps
        # trimmed in units of the spacing, where the test is exact and
        # cannot overflow: steps are multiples of 1/2, so sx**2 + sy**2 <=
        # r**2 reads as sy**2 <= r**2 - sx**2 with no full-grid float array
        inside = squares[None, :] <= ((grid - 1) / 2.0) ** 2 - squares[:, None]
        points = np.empty((np.count_nonzero(inside), 2))
        points[:, 0] = np.repeat(steps, np.count_nonzero(inside, axis=1))
        points[:, 1] = np.broadcast_to(steps, inside.shape)[inside]
        points *= spacing
        points += center

    _refuse_starts_outside_box(gmap.objective, points)
    chunks = _label_starts(gmap, points, policy, [record])
    converged = np.concatenate([codes for codes, _, _ in chunks]) == 0

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
