"""Analytic test objectives with exact gradients, Hessians, and Lipschitz bounds.

Every objective here is twice continuously differentiable and ships with:

- closed-form ``value``, ``gradient``, and ``hessian``,
- a gradient-Lipschitz bound certified on ``domain_box`` (exact and global
  for the quadratics, a box-restricted supremum bound otherwise),
- its known critical points with their expected second-order class.

The shipped zoo:

``diagonal_quadratic(lambdas)``
    f(x) = 1/2 * sum_i lambda_i x_i^2.  The unique critical point is the
    origin; its class is read from the lambdas by ``classify``'s rule.

``strongly_convex_quadratic(lambdas)``
    Same formula with all lambda_i > 0 enforced, used for convergence-rate
    experiments where a positive curvature floor matters.

``nesterov_example``
    f(x, y) = 1/2 x^2 + 1/4 y^4 - 1/2 y^2.  Three critical points: a saddle
    at the origin whose attracting set is exactly the x-axis, and two
    minima at (0, -1) and (0, 1).

``quartic_copositive(Q)``
    f(x) = sum_ij q_ij x_i^2 x_j^2.  The origin is a critical point with an
    identically zero Hessian, the canonical degenerate case.  Deciding
    whether the origin is a local minimum amounts to deciding copositivity
    of Q and is intentionally not implemented; only values and derivatives
    are.

``value``, ``gradient`` and ``hessian`` all accept a single point of shape
``(d,)`` or a batch of shape ``(n, d)`` and evaluate row-wise with
identical arithmetic, so batched drivers reproduce single-point results
bit for bit.  A batch of Hessians has shape ``(n, d, d)``.  These public
methods check the input once (a float array with trailing dimension d)
and hand it to ``_value``, ``_gradient`` and ``_hessian``, which each
objective implements and which check nothing: the descent engine calls
them directly on arrays it has already validated.

``_point_gradient(p)`` is the gradient at one point given and returned as
a list of Python floats, for the engine's single-row stepping.  It equals
``_gradient(np.array([p]))[0]`` bit for bit, -0.0, inf and NaN included:
every numpy elementwise operation and every Python float ``+``, ``-`` and
``*`` is one correctly rounded IEEE-754 double operation, and both
overflow silently (under ``np.errstate(all="ignore")``), so the zoo's
overrides repeat the array arithmetic operation for operation in the
same order, with no ``**`` and no division.  The base class's default
goes through ``_gradient``.
"""

from __future__ import annotations

import json
import numbers
from enum import Enum

import numpy as np

from .errors import ContractViolationError

# On numpy 2.4, np.add.reduce along a contiguous last axis adds its terms
# one after another, from 0.0, below this many terms, and pairwise from it
# on.  Below it a sum over columns that starts at 0.0 rounds as the
# reduction does and skips its slow short-axis loop; from it on the
# reduction is kept.  tests/test_engine.py pins both sides of the
# threshold, so a numpy that moves it fails there.
_PAIRWISE_FROM = 8


class Classification(str, Enum):
    """Second-order taxonomy of a critical point."""

    LOCAL_MIN = "LocalMin"
    LOCAL_MAX = "LocalMax"
    STRICT_SADDLE = "StrictSaddle"
    DEGENERATE = "Degenerate"


# The half-width of the near-zero eigenvalue band at a point where the
# Hessian is constant; ``critical.classify`` widens it where the Hessian
# moves (``critical._degeneracy_band``).
DEGENERACY_TOL = 1e-8


def _classify_spectrum(eigenvalues: np.ndarray, band: float) -> Classification:
    """The class of a critical point whose Hessian has the ascending
    ``eigenvalues``, where those within ``band`` of zero count as zero."""
    # Precedence: a point with both a negative and a near-zero eigenvalue is
    # reported as a saddle (the negative direction dominates the dynamics);
    # the near-zero band is preserved in the is_degenerate flag.
    if eigenvalues[-1] < -band:
        return Classification.LOCAL_MAX
    if eigenvalues[0] < -band:
        return Classification.STRICT_SADDLE
    if np.any(np.abs(eigenvalues) <= band):
        return Classification.DEGENERATE
    return Classification.LOCAL_MIN


class KnownCriticalPoint:
    """A critical point known in closed form, with its expected class."""

    __slots__ = ("location", "expected_class")

    def __init__(self, location: np.ndarray, expected_class: Classification):
        self.location = location
        self.expected_class = expected_class


def _has_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (list, tuple)) and any(map(_has_bool, value)))


def _as_floats(value, what: str) -> np.ndarray:
    """``value`` as a float array: the one conversion of parameters, points and boxes."""
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        # an object array holds ints too large for int64, or anything at all
        numeric = kind in "iuf" or kind == "O" and all(
            isinstance(e, numbers.Real) and not _has_bool(e) for e in array.flat)
        if numeric and not _has_bool(value):
            return array.astype(float)
    except (TypeError, ValueError):  # a dict or a ragged nesting
        pass
    raise ContractViolationError(f"{what} must be numbers, got {value!r}")


def _check_vector(v, shape: tuple, name: str) -> np.ndarray:
    """``v`` as a finite float array of ``shape``, or a contract violation.

    The one rule for array arguments.  Each axis of ``shape`` is a fixed
    size, or a letter for any size (0 included) that is the same wherever
    the letter repeats: ``("d", "d")`` asks for a square matrix.
    """
    v = _as_floats(v, name)
    if v.ndim != len(shape) or any(
            size != (v.shape[shape.index(axis)] if isinstance(axis, str) else axis)
            for axis, size in zip(shape, v.shape)):
        pattern = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ContractViolationError(f"{name} must have shape ({pattern})")
    if not np.all(np.isfinite(v)):
        raise ContractViolationError(f"{name} must be finite")
    return v


def _as_box(box, dimension: int, name: str = "domain_box", flat: bool = False) -> np.ndarray:
    """``box`` as ``dimension`` finite rows, lo < hi (lo <= hi if ``flat``), or a violation."""
    box = _check_vector(box, (dimension, 2), name)
    if not np.all(box[:, 0] <= box[:, 1] if flat else box[:, 0] < box[:, 1]):
        raise ContractViolationError(f"{name} intervals must have lo {'<=' if flat else '<'} hi")
    return box


def _check_point(x, dimension) -> np.ndarray:
    # non-finite entries pass: the stepping loop asks whether overflowed
    # iterates lie in the box
    x = _as_floats(x, "x")
    if x.shape[-1:] != (dimension,):
        raise ContractViolationError(
            f"point has trailing dimension {x.shape}, expected (..., {dimension})"
        )
    return x


def _refuse_overflow(objective, value_bound=None) -> None:
    # Every zoo gradient vanishes at the origin, so on the box it is at
    # most sqrt(d) * L * B long, B the box's largest bound: when d * (L *
    # B)**2 overflows, so may the squared gradient norms of the engine and
    # the Newton search, which would then report nothing instead of failing.
    # ``value_bound(c)`` runs the objective's own value arithmetic on the
    # magnitudes of its parameters at the box's farthest corner c, so it
    # bounds every intermediate of a value on the box; objectives whose
    # values the gradient bound does not already cover pass it.  Together
    # these back the ``finite_on_box`` certificate.
    with np.errstate(over="ignore", invalid="ignore"):
        lip, bound = objective.lipschitz_bound(), np.max(np.abs(objective.domain_box))
        if not np.isfinite(objective.dimension * (lip * bound) * (lip * bound)):
            raise ContractViolationError(f"{objective.name} is too large for float arithmetic: "
                                         f"d * (L * B)**2 overflows with L = {lip:g}, B = {bound:g}")
        corner = np.max(np.abs(objective.domain_box), axis=1)
        if value_bound is not None and not np.isfinite(value_bound(corner)):
            raise ContractViolationError(f"{objective.name} is too large for float arithmetic: "
                                         f"its values on domain_box overflow")


def _diagonal_fill(shape, diagonal) -> np.ndarray:
    """Zero matrices of shape ``shape + (d,)`` with ``diagonal`` on each diagonal."""
    out = np.zeros(shape + shape[-1:])
    d = shape[-1]
    out[..., np.arange(d), np.arange(d)] = diagonal
    return out


class Objective:
    """Base class: an evaluatable C^2 function on a certified box.

    Subclasses set ``name``, ``dimension``, ``domain_box`` and ``params``
    and implement ``_value``, ``_gradient`` and ``_hessian`` (unchecked;
    see the module docstring) plus ``lipschitz_bound`` and
    ``known_critical_points``.  They may override ``_point_gradient``,
    which must equal ``_gradient`` on a one-row batch bit for bit (see
    the module docstring).  ``lipschitz_global`` is True when the
    reported bound holds on all of R^d (quadratics), in which case the
    descent engine does not treat leaving the box as a certificate loss.
    ``finite_on_box`` is True when construction has certified that every
    value and gradient on ``domain_box`` is finite (``_refuse_overflow``);
    the descent engine then computes f only where a run stops while its
    iterates stay in the box.

    Objectives are immutable after construction and safe to share across
    threads; all methods are pure.
    """

    name: str
    dimension: int
    domain_box: np.ndarray
    lipschitz_global: bool = False
    finite_on_box: bool = False

    def value(self, x):
        return self._value(_check_point(x, self.dimension))

    def gradient(self, x):
        return self._gradient(_check_point(x, self.dimension))

    def hessian(self, x):
        return self._hessian(_check_point(x, self.dimension))

    def _point_gradient(self, p: list) -> list:
        return self._gradient(np.array([p]))[0].tolist()

    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    def known_critical_points(self) -> list[KnownCriticalPoint]:
        raise NotImplementedError

    @property
    def params(self):
        return []

    def contains(self, x) -> np.ndarray:
        """True where x (point or batch) lies inside the closed domain_box."""
        x = _check_point(x, self.dimension)
        lo, hi = self.domain_box[:, 0], self.domain_box[:, 1]
        return np.logical_and(x >= lo, x <= hi).all(axis=-1)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "domain_box": self.domain_box.tolist(),
        }

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, dimension={self.dimension})"


class DiagonalQuadratic(Objective):
    """f(x) = 1/2 sum_i lambda_i x_i^2 with H = diag(lambda)."""

    name = "diagonal_quadratic"
    lipschitz_global = True
    finite_on_box = True

    def __init__(self, lambdas, domain_box=None):
        lambdas = _check_vector(lambdas, ("d",), "lambdas")
        if not lambdas.size:
            raise ContractViolationError("lambdas must not be empty")
        self.lambdas = lambdas
        self._lambda_list = lambdas.tolist()
        self.dimension = lambdas.size
        if domain_box is None:
            domain_box = np.tile([-2.0, 2.0], (self.dimension, 1))
        self.domain_box = _as_box(domain_box, self.dimension)
        # with L < 1 a value, up to d * L * B**2, can overflow where
        # d * (L * B)**2 does not
        _refuse_overflow(self, lambda c: np.add.reduce(np.abs(lambdas) * c * c))

    @property
    def params(self):
        return self.lambdas.tolist()

    def _value(self, x):
        return 0.5 * np.add.reduce(self.lambdas * x * x, axis=-1)

    def _gradient(self, x):
        return self.lambdas * x

    def _point_gradient(self, p):
        return [lam * v for lam, v in zip(self._lambda_list, p)]

    def _hessian(self, x):
        return _diagonal_fill(x.shape, self.lambdas)

    def lipschitz_bound(self) -> float:
        # exact: L = max |lambda_i|, valid on all of R^d
        return float(np.max(np.abs(self.lambdas)))

    def known_critical_points(self) -> list[KnownCriticalPoint]:
        # the Hessian is constant, so classify's band is DEGENERACY_TOL
        cls = _classify_spectrum(np.sort(self.lambdas), DEGENERACY_TOL)
        return [KnownCriticalPoint(np.zeros(self.dimension), cls)]


class StronglyConvexQuadratic(DiagonalQuadratic):
    """Diagonal quadratic with all lambda_i > 0 (strong convexity modulus min lambda)."""

    name = "strongly_convex_quadratic"

    def __init__(self, lambdas, domain_box=None):
        super().__init__(lambdas, domain_box=domain_box)
        if not np.all(self.lambdas > 0):
            raise ContractViolationError("strongly_convex_quadratic requires all lambdas > 0")

    @property
    def strong_convexity_modulus(self) -> float:
        return float(np.min(self.lambdas))


class NesterovExample(Objective):
    """f(x, y) = 1/2 x^2 + 1/4 y^4 - 1/2 y^2.

    gradient  (x, y^3 - y)
    hessian   [[1, 0], [0, 3 y^2 - 1]]

    The gradient is not globally Lipschitz (the quartic term), so the bound
    is the supremum of the Hessian spectral norm over domain_box only.
    """

    name = "nesterov_example"
    dimension = 2
    lipschitz_global = False
    finite_on_box = True

    def __init__(self, domain_box=None):
        if domain_box is None:
            domain_box = [[-2.0, 2.0], [-2.0, 2.0]]
        self.domain_box = _as_box(domain_box, 2)
        # L >= 1, and L >= 2 y^2 where y^2 >= 1 on the box, so a finite
        # d * (L * B)**2 also bounds x^2 and y^4 and every term of f
        _refuse_overflow(self)

    def _value(self, x):
        u, v = x[..., 0], x[..., 1]
        v2 = v * v
        return 0.5 * u * u + 0.25 * v2 * v2 - 0.5 * v2

    def _gradient(self, x):
        v = x[..., 1]
        out = np.empty_like(x)
        out[..., 0] = x[..., 0]
        out[..., 1] = v * v * v - v
        return out

    def _point_gradient(self, p):
        u, v = p
        return [u, v * v * v - v]

    def _hessian(self, x):
        v = x[..., 1]
        hess = _diagonal_fill(x.shape, 1.0)
        hess[..., 1, 1] = 3.0 * v * v - 1.0
        return hess

    def lipschitz_bound(self) -> float:
        lo, hi = self.domain_box[1]
        y2_max = max(lo * lo, hi * hi)
        y2_min = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
        return max(1.0, abs(3.0 * y2_max - 1.0), abs(3.0 * y2_min - 1.0))

    def known_critical_points(self) -> list[KnownCriticalPoint]:
        return [
            KnownCriticalPoint(np.array([0.0, 0.0]), Classification.STRICT_SADDLE),
            KnownCriticalPoint(np.array([0.0, -1.0]), Classification.LOCAL_MIN),
            KnownCriticalPoint(np.array([0.0, 1.0]), Classification.LOCAL_MIN),
        ]


class QuarticCopositive(Objective):
    """f(x) = sum_ij q_ij x_i^2 x_j^2, zero Hessian at the origin.

    With u = x^2 elementwise and M = Q + Q^T:

        f(x)      = u^T Q u
        grad f(x) = 2 x * (M u)
        hess f(x) = 2 diag(M u) + 4 (x x^T) * M   (elementwise product)
    """

    name = "quartic_copositive"
    lipschitz_global = False
    finite_on_box = True

    def __init__(self, q, domain_box=None):
        q = _check_vector(q, ("d", "d"), "Q")
        if not q.size:
            raise ContractViolationError("Q must not be empty")
        self.q = q
        with np.errstate(over="ignore"):  # refused below if it overflows
            self._m = q + q.T
        self._columns = list(np.ascontiguousarray(self._m.T))  # the columns of M
        self._column_lists = [column.tolist() for column in self._columns]
        # the reduction adds the products to 0.0, which only turns a -0.0
        # first product into 0.0, and only a first column with a sign bit
        # set can give one (u = x * x has none)
        self._zero_start = bool(np.signbit(self._columns[0]).any())
        self.dimension = q.shape[0]
        if domain_box is None:
            domain_box = np.tile([-1.0, 1.0], (self.dimension, 1))
        self.domain_box = _as_box(domain_box, self.dimension)
        # Q's antisymmetric part cancels from M and so from L, but not
        # from the products q_ij u_j that f adds up
        _refuse_overflow(self, lambda c: self._value_of(np.abs(q), c))

    @property
    def params(self):
        return self.q.tolist()

    def _value(self, x):
        return self._value_of(self.q, x)

    @staticmethod
    def _value_of(q, x):
        u = x * x
        qu = np.add.reduce(q * u[..., None, :], axis=-1)
        return np.add.reduce(u * qu, axis=-1)

    def _gradient(self, x):
        u = x * x
        if self.dimension >= _PAIRWISE_FROM:
            mu = np.add.reduce(self._m * u[..., None, :], axis=-1)
        else:
            # M u by columns, in the reduction's order
            mu = self._columns[0] * u[..., :1]
            if self._zero_start:
                mu += 0.0
            for j in range(1, self.dimension):
                mu += self._columns[j] * u[..., j:j + 1]
        return 2.0 * x * mu

    def _point_gradient(self, p):
        if self.dimension >= _PAIRWISE_FROM:
            return super()._point_gradient(p)
        # _gradient's column sums, one operation at a time in the same order
        columns = self._column_lists
        u = [v * v for v in p]
        mu = [c * u[0] for c in columns[0]]
        if self._zero_start:
            mu = [s + 0.0 for s in mu]
        for j in range(1, self.dimension):
            u_j = u[j]
            mu = [s + c * u_j for s, c in zip(mu, columns[j])]
        return [2.0 * v * s for v, s in zip(p, mu)]

    def _hessian(self, x):
        u = x * x
        # a stack of matrix-vector products rounds like the single one
        mu = (self._m @ u[..., None])[..., 0]
        outer = x[..., :, None] * x[..., None, :]
        return 2.0 * _diagonal_fill(x.shape, mu) + 4.0 * outer * self._m

    def lipschitz_bound(self) -> float:
        # entrywise bound on |hess f| over the box, then the row-sum norm,
        # which dominates the spectral norm for symmetric matrices
        b = np.max(np.abs(self.domain_box), axis=1)
        m_abs = np.abs(self._m)
        diag_bound = 2.0 * m_abs @ (b * b)
        entry_bound = 4.0 * np.outer(b, b) * m_abs
        entry_bound[np.diag_indices(self.dimension)] += diag_bound
        return float(np.max(np.sum(entry_bound, axis=1)))

    def known_critical_points(self) -> list[KnownCriticalPoint]:
        return [KnownCriticalPoint(np.zeros(self.dimension), Classification.DEGENERATE)]


_CONSTRUCTORS = {
    "diagonal_quadratic": DiagonalQuadratic,
    "strongly_convex_quadratic": StronglyConvexQuadratic,
    "nesterov_example": NesterovExample,
    "quartic_copositive": QuarticCopositive,
}

_ALIASES = {"nesterov": "nesterov_example", "quartic": "quartic_copositive"}


def make_objective(name: str, params=None, domain_box=None) -> Objective:
    """Build a zoo objective from its registry name and parameter list."""
    key = _ALIASES.get(name, name) if isinstance(name, str) else None
    if key not in _CONSTRUCTORS:
        known = sorted(set(_CONSTRUCTORS) | set(_ALIASES))
        raise ContractViolationError(f"unknown objective {name!r}; known: {known}")
    if key == "nesterov_example":
        if params is not None and (not isinstance(params, list) or params):
            raise ContractViolationError("nesterov_example takes no parameters")
        return NesterovExample(domain_box)
    if params is None:
        raise ContractViolationError(f"objective {name!r} requires a parameter list")
    return _CONSTRUCTORS[key](params, domain_box=domain_box)


def objective_from_dict(d: dict) -> Objective:
    if not isinstance(d, dict) or "name" not in d:
        raise ContractViolationError(f"an objective dict needs a 'name', got {d!r}")
    return make_objective(d["name"], d.get("params"), d.get("domain_box"))


def parse_objective(spec: str) -> Objective:
    """Parse a CLI-style objective spec, e.g. ``diagonal_quadratic:[1,-1]``.

    The part after the first colon is JSON: a list of eigenvalues for the
    quadratics, a matrix (list of rows) for the quartic.  Plain ``nesterov``
    needs no parameters.
    """
    if not isinstance(spec, str):
        raise ContractViolationError(f"an objective spec must be a string, got {spec!r}")
    name, sep, rest = spec.partition(":")
    params = None
    if sep:
        try:
            params = json.loads(rest)
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
            raise ContractViolationError(f"bad objective parameters {rest!r}: {exc}") from exc
    return make_objective(name.strip(), params)
