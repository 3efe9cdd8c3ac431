"""Special functions of the grey Brownian family.

Evaluates the Mittag-Leffler function on the negative real axis, the
M-Wright density, moment formulas of the M-Wright law, absolute moments of
the standard normal, and the critical variation limits built from them.

Log-Gamma and Gamma values come from the standard library (math.lgamma,
math.gamma), so the package needs numpy and nothing else at run time.  A
moment or Gamma value beyond the double range raises NumericalError naming
the call; a NaN argument raises ParameterError.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import Callable

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateDistributionError,
    InputError,
    NumericalError,
    ParameterError,
)
from .params import GreyParams

__all__ = [
    "GAMMA_ARGMIN",
    "GAMMA_MIN",
    "gamma",
    "mittag_leffler",
    "mwright_pdf",
    "mwright_moment",
    "normal_abs_moment",
    "ggbm_abs_moment",
    "theoretical_variation_limit",
]

# Location and value of the minimum of the Gamma function on (0, inf).
GAMMA_ARGMIN = 1.4616321449683623
GAMMA_MIN = 0.8856031944108887

# Series terms above this magnitude lose too many digits to cancellation;
# evaluation switches to the spectral integral instead.
_SERIES_CANCEL_CAP = 1e2

# Fixed accuracy settings.  _MAX_TERMS covers the full tau-range of the M-Wright
# density down to tail values ~1e-10 for beta <= 0.75 (the series needs
# ~300 terms near that edge); beyond it the density raises AccuracyError
# rather than truncating.
_SERIES_TOL = 1e-15
_MAX_TERMS = 512
_QUADRATURE_POINTS = 64


def _finite(f: Callable[..., float]) -> Callable[..., float]:
    """f, raising NumericalError that names the call when its value leaves
    the double range."""

    @wraps(f)
    def checked(*args: float, **kwargs: float) -> float:
        try:
            value = f(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            shown = [*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())]
            raise NumericalError(f"{f.__name__}({', '.join(shown)}) overflows double precision")
        return value

    return checked


@_finite
def gamma(x: float) -> float:
    """Gamma function on the positive axis (double precision)."""
    if not x > 0.0:
        raise ParameterError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


@lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _ml_series(beta: float, s: float):
    """Power-series attempt for E_beta(-s).

    Returns the value, or None when the series would lose too much
    precision to cancellation or does not converge within _MAX_TERMS terms.
    """
    log_s = math.log(s)
    total = 0.0
    prev_mag = math.inf
    for n in range(_MAX_TERMS):
        log_mag = n * log_s - math.lgamma(beta * n + 1.0)
        mag = math.exp(log_mag)
        if mag > _SERIES_CANCEL_CAP:
            return None
        total += mag if n % 2 == 0 else -mag
        if mag < _SERIES_TOL and mag <= prev_mag:
            return total
        prev_mag = mag
    return None


def _ml_spectral(beta: float, s: float) -> float:
    """Spectral-representation integral for E_beta(-s), 0 < beta < 1, s > 0.

    E_beta(-s) = sin(pi b)/(pi b) * int_0^inf exp(-(s u)^(1/b)) /
                 ((u + cos(pi b))^2 + sin(pi b)^2) du,
    evaluated by composite fixed-order Gauss-Legendre on panels refined
    toward u = 0, around the kernel peak at u = -cos(pi b) (present for
    b > 1/2), and toward the exponential cutoff.  (At b = 1/2 this reduces
    to the closed form exp(s^2) erfc(s).)
    """
    c = math.cos(math.pi * beta)
    sg = math.sin(math.pi * beta)
    front = sg / (math.pi * beta)
    # Beyond U the integrand is suppressed by exp(-60) relative to its scale.
    upper = 60.0 ** beta / s

    edges = {0.0, upper}
    edges.update(upper * 2.0 ** -np.arange(1, 28, dtype=float))
    # cutoff-region refinement (the exponential factor turns off sharply
    # for small beta)
    edges.update(upper * np.array([0.5, 0.75, 0.875, 0.9375, 0.96875]))
    peak = -c
    if 0.0 < peak < upper:
        for mult in (-8, -4, -2, -1, -0.5, -0.25, 0.25, 0.5, 1, 2, 4, 8):
            e = peak + mult * sg
            if 0.0 < e < upper:
                edges.add(e)
        edges.add(peak)
    grid = np.array(sorted(edges))

    nodes, weights = _leggauss(_QUADRATURE_POINTS)
    lo = grid[:-1][:, None]
    hi = grid[1:][:, None]
    half = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo) + half * nodes[None, :]
    w = half * weights[None, :]
    vals = np.exp(-((s * u) ** (1.0 / beta))) / ((u + c) ** 2 + sg * sg)
    return front * float(np.sum(vals * w))


def mittag_leffler(beta: float, s: float) -> float:
    """E_beta(-s) for beta in (0, 1] and s >= 0.

    Uses the defining power series while its terms stay small enough for
    full double-precision accuracy and the spectral integral otherwise;
    beta = 1 short-circuits to exp(-s).
    """
    if not (0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not math.isfinite(s):
        raise InputError(f"s must be finite, got {s}")
    if s < 0.0:
        raise InputError(f"s must be nonnegative, got {s}")
    if beta == 1.0:
        return math.exp(-s)
    if s == 0.0:
        return 1.0
    value = _ml_series(beta, s)
    if value is None:
        value = _ml_spectral(beta, s)
    # The exact function maps [0, inf) into (0, 1]; clip quadrature jitter.
    return min(max(value, 0.0), 1.0)


# Taus per block of the vectorised M-Wright series: a block holds
# _PDF_BLOCK * _MAX_TERMS doubles per temporary, so memory stays bounded.
_PDF_BLOCK = 128


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma of each entry of a 1-d array of positive values."""
    return np.array([math.lgamma(v) for v in x.tolist()])


@lru_cache(maxsize=8)
def _mwright_coeffs(beta: float):
    """Beta-only parts of the M-Wright series, one entry per term n.

    Returns (n, log n!, envelope offset log Gamma(beta(n+1)) - log pi,
    reciprocal-Gamma log-magnitude, sign of the signed term).  The
    reciprocal Gamma at negative arguments comes from the reflection
    formula in log space; where 1 - beta(n+1) is a nonpositive integer it
    vanishes, and its log-magnitude is -inf.
    """
    n = np.arange(_MAX_TERMS, dtype=float)
    a = 1.0 - beta * (n + 1.0)
    # sin(pi a) with exact argument reduction (exact zeros at integers).
    r = a - np.round(a)
    sin_a = np.where(np.round(a) % 2.0 == 0.0, 1.0, -1.0) * np.sin(np.pi * r)
    sin_a[r == 0.0] = 0.0
    log_pi = math.log(math.pi)
    # Each branch is evaluated only where it applies: lgamma raises at the
    # poles a = 0, -1, ..., where the reciprocal Gamma vanishes.
    right = a > 0.0
    left = ~right & (sin_a != 0.0)
    rg_log = np.full(_MAX_TERMS, -np.inf)
    rg_log[right] = -_lgamma(a[right])
    rg_log[left] = np.log(np.abs(sin_a[left])) + _lgamma(1.0 - a[left]) - log_pi
    sign = (-1.0) ** n * np.where(right, 1.0, np.sign(sin_a))
    coeffs = (n, _lgamma(n + 1.0), _lgamma(beta * (n + 1.0)) - log_pi, rg_log, sign)
    for c in coeffs:
        c.flags.writeable = False
    return coeffs


def _mwright_block(beta: float, taus: np.ndarray) -> np.ndarray:
    """The M-Wright series on a block of positive taus, one row of terms per tau."""
    n, log_fact, env_off, rg_log, sign = _mwright_coeffs(beta)
    base = np.log(taus)[:, None] * n - log_fact
    env_log = base + env_off
    with np.errstate(over="ignore"):
        env = np.exp(env_log)
    # Each row stops at its first term n > 0 whose envelope is below the
    # tolerance and not rising.
    stop = np.zeros(env.shape, dtype=bool)
    stop[:, 1:] = (env[:, 1:] < _SERIES_TOL) & (env[:, 1:] <= env[:, :-1])
    converged = stop.any(axis=1)
    last = np.where(converged, stop.argmax(axis=1), _MAX_TERMS - 1)
    over = env_log > 700.0
    overflow = over.any(axis=1) & (over.argmax(axis=1) <= last)
    failed = overflow | ~converged
    if failed.any():
        i = int(np.argmax(failed))
        reason = (
            "terms overflow double precision"
            if overflow[i]
            else f"did not converge within {_MAX_TERMS} terms"
        )
        raise AccuracyError(f"M-Wright series {reason} (beta={beta}, tau={taus[i]})")
    cols = int(last.max()) + 1
    with np.errstate(over="ignore"):
        mag = np.exp(base[:, :cols] + rg_log[:cols])
    mag[np.arange(cols)[None, :] > last[:, None]] = 0.0
    # cumsum adds the terms in order; np.sum would add them pairwise.
    total = np.cumsum(mag * sign[:cols], axis=1)[:, -1]
    # Below the cancellation noise floor (measured at ~100 eps relative per
    # term, accumulated over the alternating sum) the result carries no
    # significance; the true density is nonnegative and superexponentially
    # small there, so report exactly zero.
    total[np.abs(total) <= 1e-12 * mag.max(axis=1)] = 0.0
    if np.any(total < 0.0):
        i = int(np.argmax(total < 0.0))
        raise AccuracyError(
            f"M-Wright series lost all significance (beta={beta}, tau={taus[i]}, "
            f"value={total[i]})"
        )
    return total


def mwright_pdf(beta: float, tau):
    """M-Wright density M_beta(tau) on tau >= 0 for beta in (0, 1).

    tau may be a scalar, which gives a float, or an array, which gives an
    array of the same shape.  Summed as
    sum_n (-tau)^n / (n! Gamma(1 - beta(n+1))) with the reciprocal Gamma at
    negative arguments obtained from the reflection formula in log space;
    the beta-only parts of every term are computed once per beta.
    Convergence is judged per tau on the envelope
    tau^n Gamma(beta(n+1)) / (pi n!), which bounds every term and is not
    deflated by the reflection zeros.  beta = 1 is the point mass at
    tau = 1 and is rejected; samplers special-case it.
    """
    if beta == 1.0:
        raise DegenerateDistributionError(
            "M_1 is the point mass at tau = 1; no density to evaluate"
        )
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    taus = np.asarray(tau, dtype=float)
    bad = ~np.isfinite(taus) | (taus < 0.0)
    if bad.any():
        raise InputError(f"tau must be finite and nonnegative, got {taus[bad][0]}")
    flat = taus.ravel()
    out = np.full(flat.shape, 1.0 / gamma(1.0 - beta))
    positive = np.flatnonzero(flat > 0.0)
    for start in range(0, len(positive), _PDF_BLOCK):
        idx = positive[start:start + _PDF_BLOCK]
        out[idx] = _mwright_block(beta, flat[idx])
    if taus.ndim == 0:
        return float(out[0])
    return out.reshape(taus.shape)


def _log_mwright_moment(beta: float, delta: float) -> float:
    if not (0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not (delta > -1.0):
        raise ParameterError(f"delta must exceed -1, got {delta}")
    return math.lgamma(delta + 1.0) - math.lgamma(beta * delta + 1.0)


def _log_normal_abs_moment(q: float) -> float:
    if not (q > -1.0):
        raise ParameterError(f"q must exceed -1, got {q}")
    return 0.5 * q * math.log(2.0) + math.lgamma(0.5 * (q + 1.0)) - 0.5 * math.log(math.pi)


@_finite
def mwright_moment(beta: float, delta: float) -> float:
    """Moment of order delta > -1 of the M-Wright law: Gamma(delta+1)/Gamma(beta*delta+1)."""
    return math.exp(_log_mwright_moment(beta, delta))


@_finite
def normal_abs_moment(q: float) -> float:
    """E|Z|^q for standard normal Z and q > -1: 2^(q/2) Gamma((q+1)/2) / sqrt(pi)."""
    return math.exp(_log_normal_abs_moment(q))


@_finite
def ggbm_abs_moment(beta: float, p: float) -> float:
    """E|B(1)|^p for the grey Brownian family.

    The path factorizes into an independent scale sqrt(Y) and a standard
    Gaussian marginal at t = 1, so the moment splits into
    Gamma(p/2+1)/Gamma(beta*p/2+1) times E|Z|^p.  Independent of alpha.
    """
    if not (p > 0.0):
        raise ParameterError(f"p must be positive, got {p}")
    return math.exp(_log_mwright_moment(beta, 0.5 * p) + _log_normal_abs_moment(p))


def theoretical_variation_limit(params: GreyParams) -> float:
    """Mean critical dyadic variation E|B(1)|^(2/alpha) of the (alpha, beta) family."""
    return ggbm_abs_moment(params.beta, 2.0 / params.alpha)
