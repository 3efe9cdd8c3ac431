"""Model parameters for the grey Brownian family."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class GreyParams:
    """Parameter pair (alpha, beta) of a generalized grey Brownian motion.

    alpha in (0, 2) sets the scaling exponent (Hurst index H = alpha/2),
    beta in (0, 1] selects the subordinator law; beta = 1 recovers
    fractional Brownian motion and alpha = beta = 1 plain Brownian motion.
    """

    alpha: float
    beta: float

    def __post_init__(self):
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

    @classmethod
    def fbm(cls, hurst: float) -> "GreyParams":
        """Parameters of the fBm special case with the given Hurst index."""
        if not (0.0 < hurst < 1.0):
            raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")
        return cls(alpha=2.0 * hurst, beta=1.0)
