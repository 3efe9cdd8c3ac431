"""Dyadic and uniform-grid p-variation statistics and regime classification.

The sum V = sum_j |x(t_j) - x(t_{j-1})|^p over consecutive grid points is
the workhorse; on nested dyadic grids its level sequence diagnoses the
three regimes (vanishing, exploding, critical) controlled by the sign of
p*alpha/2 - 1.

Every sum comes from one kernel, ``_level_sums``, which computes each
(level, p) sum of a path once and keeps it on the path, so the estimators
and discriminators that read the same sums share them.  One call evaluates
all the levels it lacks together: their increments go into one buffer,
which takes one power pass (none at p = 1, a plain square at p = 2), and
each level's sum is read from its slice.  Path values are
read-only, so a kept sum cannot go stale; nothing but these sums is kept
on a path.  The exponent p must be finite and positive; a sum that
overflows the double range raises NumericalError.  On a uniform n-grid
the renormalized statistic of the limit theorems is n^(p*alpha/2 - 1)
times ``p_variation_sum(path, p).value``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, NumericalError, ParameterError
from .params import GreyParams, _real, _sequence
from .sampling import DyadicGrid, SamplePath
from .special import theoretical_variation_limit

__all__ = [
    "VariationRecord",
    "Regime",
    "TrichotomyLabel",
    "p_variation_sum",
    "variation_trichotomy",
    "variation_sequence",
    "hoelder_dominance_bound",
]

# |p*alpha/2 - 1| below this is treated as the exact critical exponent
# (alpha arrives as a float).
CRITICAL_EXPONENT_TOL = 1e-12


def _check_exponent(p: float, name: str = "p") -> None:
    if not 0.0 < _real(p, name) < math.inf:
        raise ParameterError(f"{name} must be finite and positive, got {p}")


def _check_levels(levels: Iterable[int], top: Optional[int]) -> List[int]:
    """levels as a list, or the InputError variation_sequence raises for
    them on a level-top path; top None checks only that they are integers."""
    levels = _sequence(levels, "levels", InputError)
    for level in levels:
        if isinstance(level, bool) or not isinstance(level, numbers.Integral):
            raise InputError(f"level {level!r} is not an integer")
        if top is not None and not (0 <= level <= top):
            raise InputError(f"level {level} outside [0, {top}]")
    return levels


@dataclass(frozen=True)
class VariationRecord:
    """One variation sum: grid resolution, exponent, and value."""

    level_or_n: int
    p: float
    value: float

    def __post_init__(self):
        _check_exponent(self.p)
        if self.value < 0.0:
            raise ParameterError("variation value cannot be negative")


class Regime(enum.Enum):
    ZERO = "zero"
    INFINITE = "infinite"
    CRITICAL_FINITE = "critical-finite"


@dataclass(frozen=True)
class TrichotomyLabel:
    """Limit regime of the dyadic p-variation, with the mean critical
    limit attached in the finite case."""

    regime: Regime
    limit: Optional[float] = None

    def __post_init__(self):
        if self.regime is Regime.CRITICAL_FINITE:
            if self.limit is None or self.limit <= 0.0:
                raise ParameterError("critical regime carries a positive limit")
        elif self.limit is not None:
            raise ParameterError("only the critical regime carries a limit")


def _finest(path: SamplePath) -> int:
    """The path's own level (dyadic grids) or size n (uniform grids)."""
    return path.grid.level if isinstance(path.grid, DyadicGrid) else path.grid.n


def _level_sums(path: SamplePath, levels: Sequence[int], p: float) -> List[float]:
    """Sums of |increment|^p over every 2^(N-level)-th point of a level-N
    dyadic path, or over all points of a uniform path (level = n), one per
    requested level.

    The only code that evaluates a variation sum.  Each (level, p) sum is
    computed once per path and kept on it; the missing levels of a call
    share one increment buffer and one power pass.  Its callers check p
    and the levels.
    """
    sums = path._sums
    missing = [level for level in dict.fromkeys(levels) if (level, p) not in sums]
    if missing:
        x = path.values
        steps = [2 ** (_finest(path) - level) for level in missing]
        bounds = list(accumulate(((len(x) - 1) // step for step in steps), initial=0))
        buf = np.empty(bounds[-1])
        slices = [buf[start:end] for start, end in zip(bounds, bounds[1:])]
        with np.errstate(over="ignore"):
            for step, d in zip(steps, slices):
                np.subtract(x[step::step], x[:-step:step], out=d)
            if p == 2.0:  # equals abs then power bit for bit
                np.square(buf, out=buf)
            else:
                np.abs(buf, out=buf)
                if p != 1.0:
                    buf **= p
        for level, d in zip(missing, slices):
            value = float(np.sum(d))
            if not math.isfinite(value):
                raise NumericalError(
                    f"variation sum at p={p}, level {level} overflows the double range"
                )
            sums[(level, p)] = value
    return [sums[(level, p)] for level in levels]


def p_variation_sum(path: SamplePath, p: float) -> VariationRecord:
    """Sum of |increment|^p over consecutive grid points."""
    _check_exponent(p)
    level_or_n = _finest(path)
    return VariationRecord(level_or_n=level_or_n, p=p, value=_level_sums(path, [level_or_n], p)[0])


def variation_trichotomy(alpha: float, beta: float, p: float) -> TrichotomyLabel:
    """Classify the limiting regime of the dyadic p-variation sums.

    Vanishes for p*alpha/2 > 1, diverges for p*alpha/2 < 1, and at the
    critical exponent p = 2/alpha has a finite positive limit whose mean
    is theoretical_variation_limit(GreyParams(alpha, beta)).
    """
    params = GreyParams(alpha, beta)
    _check_exponent(p)
    gap = p * alpha / 2.0 - 1.0
    if abs(gap) <= CRITICAL_EXPONENT_TOL:
        return TrichotomyLabel(Regime.CRITICAL_FINITE, theoretical_variation_limit(params))
    if gap > 0.0:
        return TrichotomyLabel(Regime.ZERO)
    return TrichotomyLabel(Regime.INFINITE)


def variation_sequence(
    path: SamplePath, p: float, levels: Iterable[int]
) -> List[VariationRecord]:
    """Variation sums of one dyadic path coarsened to each requested level.

    Coarsening subsamples every 2^(N-n)-th point of the level-N path, so
    the records live on the nested dyadic partitions of a single path.
    """
    _check_exponent(p)
    levels = _check_levels(levels, path.dyadic_level)
    return [VariationRecord(level, p, value)
            for level, value in zip(levels, _level_sums(path, levels, p))]


def hoelder_dominance_bound(
    path: SamplePath, p: float, q: float
) -> Tuple[float, float]:
    """Factor pair (max|increment|^(q-p), p-variation value).

    Their product bounds the q-variation sum at the same resolution, with
    equality when all increments share one magnitude.
    """
    _check_exponent(p)
    _check_exponent(q, "q")
    if not q > p:
        raise ParameterError(f"need q > p > 0, got p={p}, q={q}")
    p_value = _level_sums(path, [_finest(path)], p)[0]
    d = path.increments()
    sup = max(0.0, d.max(), -d.min())  # 0.0 first: -0.0 increments give +0.0, as abs does
    with np.errstate(over="ignore"):
        sup_factor = float(sup ** (q - p))
    if not math.isfinite(sup_factor):
        raise NumericalError(f"max|increment|^(q-p) at p={p}, q={q} overflows the double range")
    return sup_factor, p_value
