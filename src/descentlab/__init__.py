"""Gradient-descent dynamics at desk scale.

Small analytic objectives, an exact gradient-descent engine, inversion of
the gradient map, critical-point classification with stable subspaces,
and Monte Carlo experiments showing that random initialization avoids
strict saddles.
"""

import os
import sys

# Importing numpy starts OpenBLAS's thread pool, whose idle workers spin
# and cost a fresh process tens of milliseconds.  Every matrix descentlab
# factors or multiplies is d x d at desk scale, which OpenBLAS never
# splits across threads, and a census runs its own n_jobs threads.  So
# when descentlab loads numpy itself, and the caller has not chosen a
# thread count, the pool gets one thread; the variable is gone again
# afterwards, so child processes see the caller's environment.  Import
# numpy first, or set OPENBLAS_NUM_THREADS, to keep the pool.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .critical import (
    CriticalPointList,
    CriticalPointRecord,
    StableSetSample,
    classify,
    find_critical_points,
    sample_local_stable_set,
    stable_subspace,
)
from .engine import (
    BatchResult,
    GradientMap,
    StopPolicy,
    StopReason,
    Trajectory,
    alpha_from_theta,
    closed_form_quadratic,
    descent_violations,
    run,
    run_many,
)
from .errors import (
    BasinAmbiguityError,
    ContractViolationError,
    DescentLabError,
    InapplicableError,
    InsufficientDataError,
    NonConvergenceError,
    NumericalFailureError,
)
from .experiments import (
    LojasiewiczCertificate,
    MonteCarloReport,
    PathLengthReport,
    RateFit,
    assign_basin,
    best_rate_fit,
    check_lojasiewicz,
    fit_linear_rate,
    fit_power_rate,
    monte_carlo,
    path_length_check,
    rate_fits,
)
from .inverse import (
    InjectivityReport,
    ProxSolveReport,
    RoundTripReport,
    injectivity_margin_check,
    invert,
    roundtrip_check,
)
from .jacobi import eigh_jacobi, off_diagonal_norm
from .zoo import (
    Classification,
    DiagonalQuadratic,
    KnownCriticalPoint,
    NesterovExample,
    Objective,
    QuarticCopositive,
    StronglyConvexQuadratic,
    make_objective,
    objective_from_dict,
    parse_objective,
)

__version__ = "0.1.0"

__all__ = [
    "BasinAmbiguityError",
    "BatchResult",
    "Classification",
    "ContractViolationError",
    "CriticalPointList",
    "CriticalPointRecord",
    "DescentLabError",
    "DiagonalQuadratic",
    "GradientMap",
    "InapplicableError",
    "InjectivityReport",
    "InsufficientDataError",
    "KnownCriticalPoint",
    "LojasiewiczCertificate",
    "MonteCarloReport",
    "NesterovExample",
    "NonConvergenceError",
    "NumericalFailureError",
    "Objective",
    "PathLengthReport",
    "ProxSolveReport",
    "QuarticCopositive",
    "RateFit",
    "RoundTripReport",
    "StableSetSample",
    "StopPolicy",
    "StopReason",
    "StronglyConvexQuadratic",
    "Trajectory",
    "alpha_from_theta",
    "assign_basin",
    "best_rate_fit",
    "check_lojasiewicz",
    "classify",
    "closed_form_quadratic",
    "descent_violations",
    "eigh_jacobi",
    "find_critical_points",
    "fit_linear_rate",
    "fit_power_rate",
    "injectivity_margin_check",
    "invert",
    "make_objective",
    "monte_carlo",
    "objective_from_dict",
    "off_diagonal_norm",
    "parse_objective",
    "path_length_check",
    "rate_fits",
    "roundtrip_check",
    "run",
    "run_many",
    "sample_local_stable_set",
    "stable_subspace",
]
