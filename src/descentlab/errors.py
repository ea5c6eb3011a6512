"""Exception types shared across the library, and the rules for scalar arguments."""

import numbers

__all__ = [
    "BasinAmbiguityError", "ContractViolationError", "DescentLabError", "InapplicableError",
    "InsufficientDataError", "NonConvergenceError", "NumericalFailureError",
]


class DescentLabError(Exception):
    """Base class for all descentlab errors."""


class ContractViolationError(DescentLabError):
    """An input violated a documented precondition (dimension, range, state)."""


class NumericalFailureError(DescentLabError):
    """A non-finite value or gradient appeared during iteration.

    Carries the index of the offending iterate and, from a batch, the
    trial whose row showed it, which the message names last.
    """

    def __init__(self, message, iterate_index, trial=None):
        super().__init__(message)
        self.iterate_index = iterate_index
        self.trial = trial

    def __str__(self):
        return super().__str__() + ("" if self.trial is None else f" (trial {self.trial})")


class NonConvergenceError(DescentLabError):
    """An inner solver exhausted its iteration budget.

    Carries the best residual achieved so the caller can distinguish
    "tolerance too tight" from "genuinely stuck".
    """

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


class InsufficientDataError(DescentLabError):
    """Too few usable iterates for a trajectory fit."""


class BasinAmbiguityError(DescentLabError):
    """Two critical-point records both claim a trajectory limit; tolerances are misconfigured."""


class InapplicableError(DescentLabError):
    """A check was requested outside the region where its certificate holds."""


def _check_real(value, name: str, sign: str = "") -> float:
    """``value`` as a float, refusing a boolean, a non-real, NaN and a ``sign`` not met."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractViolationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    # each test is written so that NaN fails it
    if sign == "positive":
        valid = value > 0
    elif sign == "non-negative":
        valid = value >= 0
    elif sign == "":
        valid = value == value
    else:
        raise ValueError(f"unknown sign {sign!r}")
    if not valid:
        raise ContractViolationError(f"{name} must be {sign or 'a real number'}, got {value!r}")
    return value


def _check_count(value, name: str, least: int = 0, most=None) -> int:
    """``value`` as an int of at least ``least`` (0 or 1) and at most
    ``most`` (None: no cap), refusing a boolean and a non-integer (2.0
    included)."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if least == 0 and not (integer and value >= 0):
        raise ContractViolationError(f"{name} must be a non-negative integer, got {value!r}")
    if not integer:
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ContractViolationError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise ContractViolationError(f"{name} must be at most {most}, got {value}")
    return int(value)
