"""Symmetric eigendecomposition by cyclic Jacobi rotations.

Meant for the tiny matrices this library sees (d <= 20 or so), where a
dependency-free solver with predictable accuracy beats calling out to
LAPACK.  Convergence is quadratic once the off-diagonal mass is small, so
the sweep budget below is generous by orders of magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, NonConvergenceError, _check_count, _check_real
from .zoo import _check_vector

__all__ = ["eigh_jacobi", "off_diagonal_norm"]


def off_diagonal_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def eigh_jacobi(a, tol: float = 1e-13, max_sweeps: int = 60):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Rotations sweep the strict upper triangle cyclically until the
    off-diagonal Frobenius norm drops below ``tol * max(1, ||a||_F)``.
    Returns ``(w, v)`` with ``v[:, i]`` the eigenvector for ``w[i]``; each
    column's largest-magnitude component is made positive so bases are
    deterministic.  ``a`` must be a finite, square and symmetric array of
    numbers, up to 1e-10 relative asymmetry; a negative or NaN ``tol`` and a
    non-integer ``max_sweeps`` are refused, and so is a matrix whose
    eigenvalues overflow.  On a budget of 0 sweeps a matrix already
    diagonal to ``tol`` is still decomposed.
    """
    tol = _check_real(tol, "tol", "non-negative")
    max_sweeps = _check_count(max_sweeps, "max_sweeps")
    a = _check_vector(a, ("n", "n"), "a")
    # The sweeps work on ``a`` scaled by a power of two so that its
    # largest entry lies below 1, where no square or sum overflows, and
    # ``scale`` is max(1, ||a||_F) in those units.  The scaling is exact
    # above the subnormal range, so every result keeps the bits of the
    # unscaled arithmetic once scaled back.
    exponent = max(0, math.frexp(float(np.max(np.abs(a), initial=0.0)))[1])
    a = np.ldexp(a, -exponent)
    scale = max(math.ldexp(1.0, -exponent), float(np.sqrt(np.sum(a * a))))
    if np.any(np.abs(a - a.T) > 1e-10 * scale):
        raise ContractViolationError("a must be symmetric")
    a = 0.5 * (a + a.T)

    n = a.shape[0]
    v = np.eye(n)
    threshold = tol * scale
    # convergence is tested before every sweep and after the last one
    for sweep in range(max_sweeps + 1):
        off = off_diagonal_norm(a)
        if off <= threshold:
            break
        if sweep == max_sweeps:
            with np.errstate(over="ignore"):
                off = float(np.ldexp(off, exponent))
            raise NonConvergenceError(f"Jacobi sweeps exhausted with off-diagonal norm {off}", off)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                # Golub & Van Loan sym.schur2: the smaller-angle root.  In
                # Python floats, which round as float64 does, a huge tau
                # squares to inf without a warning and t is then 0.
                tau = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0

                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q

    with np.errstate(over="ignore"):
        w = np.ldexp(np.diag(a), exponent)
    if not np.all(np.isfinite(w)):
        raise ContractViolationError("a must have eigenvalues within the float range")
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    for i in range(n):
        lead = np.argmax(np.abs(v[:, i]))
        if v[lead, i] < 0:
            v[:, i] = -v[:, i]
    return w, v
