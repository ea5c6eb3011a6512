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

from . import critical, engine, errors, experiments, inverse, jacobi, zoo
from .critical import *
from .engine import *
from .errors import *
from .experiments import *
from .inverse import *
from .jacobi import *
from .zoo import *

__version__ = "0.1.0"

# each module's __all__ names its public API; the package re-exports exactly those
__all__ = sorted(critical.__all__ + engine.__all__ + errors.__all__ + experiments.__all__
                 + inverse.__all__ + jacobi.__all__ + zoo.__all__)
