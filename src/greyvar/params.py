"""Model parameters for the grey Brownian family."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import ParameterError


def _real(value, name: str):
    """value, if it is a real number and not a bool; otherwise a
    ParameterError naming name."""
    if type(value) is float:  # skips the slower abstract-class check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return value


def _sequence(values, name: str, error=ParameterError) -> list:
    """values as a list; a non-iterable raises error (a ParameterError unless
    given) naming name."""
    try:
        return list(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class GreyParams:
    """Parameter pair (alpha, beta) of a generalized grey Brownian motion.

    alpha in (0, 2) sets the scaling exponent (Hurst index H = alpha/2),
    beta in (0, 1] selects the subordinator law; beta = 1 recovers
    fractional Brownian motion, GreyParams(2 * hurst, 1.0), and
    alpha = beta = 1 plain Brownian motion.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            _real(getattr(self, name), name)
        if not (0.0 < self.alpha < 2.0):
            raise ParameterError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (0.0 < self.beta <= 1.0):
            raise ParameterError(f"beta must lie in (0, 1], got {self.beta}")

    @property
    def hurst(self) -> float:
        return self.alpha / 2.0

    @property
    def p_critical(self) -> float:
        """Exponent at which the dyadic variation has a finite positive limit."""
        return 2.0 / self.alpha

