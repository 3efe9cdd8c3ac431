"""Special functions of the grey Brownian family.

Evaluates the Mittag-Leffler function on the negative real axis and the
M-Wright density, each by fixed-node quadrature of one integral with a
positive integrand (the spectral representation and Kanter's), moment
formulas of the M-Wright law, absolute moments of the standard normal, and
the critical variation limits built from them.

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
    DegenerateDistributionError,
    InputError,
    NumericalError,
    ParameterError,
)
from .params import GreyParams, _real
from .sampling import _kanter_log_y

__all__ = [
    "GAMMA_ARGMIN",
    "GAMMA_MIN",
    "gamma",
    "mittag_leffler",
    "mwright_pdf",
    "mwright_moment",
    "normal_abs_moment",
    "theoretical_variation_limit",
]

# Location and value of the minimum of the Gamma function on (0, inf).
GAMMA_ARGMIN = 1.4616321449683623
GAMMA_MIN = 0.8856031944108887

# Gauss-Legendre order of the Mittag-Leffler spectral panels.
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
    if not _real(x, "x") > 0.0:
        raise ParameterError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


@lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_panels(edges: np.ndarray, order: int):
    """Nodes and weights of the composite order-point Gauss-Legendre rule
    on the panels between consecutive edges, panel by panel."""
    nodes, weights = _leggauss(order)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * nodes).ravel(), (half * weights).ravel()


def mittag_leffler(beta: float, s: float) -> float:
    """E_beta(-s) for beta in (0, 1] and s >= 0.

    beta = 1 short-circuits to exp(-s), and s <= 2^-56 to 1.0, the correctly
    rounded value there.  Otherwise one spectral integral (Gorenflo,
    Loutchko & Luchko 2002),

        E_beta(-s) = sin(pi b)/(pi b) * int_0^inf exp(-(s u)^(1/b)) /
                     ((u + cos(pi b))^2 + sin(pi b)^2) du,

    by composite 64-point Gauss-Legendre on octave panels that reach 2^-27
    of both the cutoff and the kernel's unit scale, refined toward the
    exponential cutoff and around the kernel peak at u = -cos(pi b)
    (present for b > 1/2).  The integrand is positive, so nothing cancels.
    """
    if not (0.0 < _real(beta, "beta") <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not math.isfinite(_real(s, "s")):
        raise InputError(f"s must be finite, got {s}")
    if s < 0.0:
        raise InputError(f"s must be nonnegative, got {s}")
    if beta == 1.0:
        return math.exp(-s)
    if s <= 2.0 ** -56:
        return 1.0
    c = math.cos(math.pi * beta)
    sg = math.sin(math.pi * beta)
    # Beyond upper the integrand is suppressed by exp(-60) relative to its scale.
    upper = 60.0 ** beta / s
    edges = {0.0, upper}
    # Octaves down to 2^-27 of both upper and 1, the kernel's scale.
    edges.update(upper * 2.0 ** -np.arange(1.0, 28.0 + max(0, math.ceil(math.log2(upper)))))
    # The exponential factor turns off sharply for small beta.
    edges.update(upper * np.array([0.75, 0.875, 0.9375, 0.96875]))
    peak = -c
    if 0.0 < peak < upper:
        for mult in (-8, -4, -2, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 2, 4, 8):
            e = peak + mult * sg
            if 0.0 < e < upper:
                edges.add(e)
    u, w = _gauss_panels(np.array(sorted(edges)), _QUADRATURE_POINTS)
    vals = np.exp(-((s * u) ** (1.0 / beta))) / ((u + c) ** 2 + sg * sg)
    value = sg / (math.pi * beta) * float(np.sum(vals * w))
    # The exact function maps [0, inf) into (0, 1]; clip quadrature jitter.
    return min(max(value, 0.0), 1.0)


# M_beta: _MW_TERMS Taylor terms below _MW_TAU0, Kanter's integral on _MW_ORDER-point
# panels above, _MW_BUDGET (tau, node) pairs at a time; 28,000 nodes at _MW_BETA_MAX.
# Below _MW_BETA_MIN the u panels' edge near pi rounds onto pi.
_MW_TAU0, _MW_TERMS, _MW_ORDER = 1e-2, 8, 24
_MW_BUDGET, _MW_BETA_MIN, _MW_BETA_MAX = 128 * 512, 1e-15, 0.999


@lru_cache(maxsize=8)
def _mwright_plan(beta: float):
    """c = 1/(1-beta), nodes s = log A(u) and u-space weights for Kanter's
    M_beta(tau) = c/(pi tau) int_0^pi x A exp(-x A) du, x = tau^c, the first
    n_u on u panels, and M_beta's Taylor coefficients, highest order first.
    log A rises from log A(0+) to infinity at pi.  Below log A(0+) + 1 it is
    flat: u panels, refined toward 0 (the far tail's peak) and toward pi.
    Above, panels of width 4 in s up to 5 - c log(_MW_TAU0) hold the peak
    of x A exp(-x A) for every tau >= _MW_TAU0; u comes from bisecting
    log A, and the weights are divided by d log A/du.
    """
    b1 = 1.0 - beta
    c = 1.0 / b1

    def log_a(u):
        return -_kanter_log_y(beta, u, 1.0) / b1

    def u_at(s):
        lo, hi = np.zeros_like(s), np.full_like(s, math.pi)
        for _ in range(64):  # below the float spacing of u
            mid = 0.5 * (lo + hi)
            below = log_a(mid) < s
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    s_flat = math.log(b1) + beta * c * math.log(beta) + 1.0
    u1 = float(u_at(np.array([s_flat]))[0])
    gap = math.pi - u1
    toward_pi = math.pi - gap * 2.0 ** np.arange(1.0, math.log2((math.pi - 0.5 * u1) / gap))
    u, u_w = _gauss_panels(np.unique([0.0, *u1 * 2.0 ** -np.arange(9.0), *toward_pi]), _MW_ORDER)
    s, s_w = _gauss_panels(np.arange(s_flat, 9.0 - c * math.log(_MW_TAU0), 4.0), _MW_ORDER)
    us = u_at(s)
    slope = b1 / np.tan(b1 * us) + beta * beta * c / np.tan(beta * us) - c / np.tan(us)
    # (-1)^n / (n! Gamma(1 - beta(n+1))); 1/Gamma vanishes at its poles.
    taylor = []
    for n in range(_MW_TERMS - 1, -1, -1):
        x = 1.0 - beta * (n + 1)
        pole = x <= 0.0 and x == math.floor(x)
        taylor.append(0.0 if pole else (-1.0) ** n / (math.factorial(n) * math.gamma(x)))
    nodes, weights = np.concatenate([log_a(u), s]), np.concatenate([u_w, s_w / slope])
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return c, nodes, weights, len(u), tuple(taylor)


def mwright_pdf(beta: float, tau):
    """M-Wright density M_beta(tau) on tau >= 0 for beta in [1e-15, 0.999].

    tau may be a scalar, which gives a float, or an array, which gives an
    array of the same shape.  Kanter's integral (Kanter 1975) over the
    M-Wright sampler's own log A(u), on fixed nodes placed on its peak, and
    eight Taylor terms below tau = 1e-2.  The integrand is positive, so
    nothing cancels: down to the double underflow, where values become 0,
    they are within 1e-12 relative, or within eps times the condition
    number c tau^c A(0+) where that is larger (the far tail as beta nears
    1).  beta = 1, the point mass at 1, is rejected; samplers special-case it.
    """
    if _real(beta, "beta") == 1.0:
        raise DegenerateDistributionError("M_1 is the point mass at tau = 1: it has no density")
    if not (_MW_BETA_MIN <= beta <= _MW_BETA_MAX):
        raise ParameterError(f"beta must lie in [{_MW_BETA_MIN}, {_MW_BETA_MAX}] for the density, got {beta}")
    taus = np.asarray(tau)
    if taus.dtype.kind not in "iuf":  # bools, strings, bytes, complex and objects
        raise ParameterError(f"tau must be a real number or an array of them, got {tau!r}")
    taus = taus.astype(float, copy=False)
    bad = ~np.isfinite(taus) | (taus < 0.0)
    if bad.any():
        raise InputError(f"tau must be finite and nonnegative, got {taus[bad][0]}")
    c, nodes, weights, n_u, taylor = _mwright_plan(beta)
    flat = taus.ravel()
    out = np.empty(flat.shape)
    near = flat < _MW_TAU0
    out[near] = np.polyval(taylor, flat[near])
    # Ascending, so each block's first tau keeps the most nodes.
    far = np.flatnonzero(~near)[np.argsort(flat[~near], kind="stable")]
    rows = max(1, _MW_BUDGET // len(nodes))
    for start in range(0, len(far), rows):
        idx = far[start:start + rows]
        t = flat[idx, None]
        z = nodes + c * np.log(t)  # log x A
        # s nodes with z > 6 add less than exp(-e^6) each.
        keep = n_u + int(np.searchsorted(z[0, n_u:], 6.0, side="right"))
        with np.errstate(over="ignore"):
            xa = np.exp(z[:, :keep])
            # The far tail lives on the u panels, where exp(-x A) would
            # magnify the rounding of c log tau: x A is a product there.
            xa[:, :n_u] = t ** c * np.exp(nodes[:n_u])
            out[idx] = c / (math.pi * t[:, 0]) * (np.exp(z[:, :keep] - xa) @ weights[:keep])
    return float(out[0]) if taus.ndim == 0 else out.reshape(taus.shape)


def _log_mwright_moment(beta: float, delta: float) -> float:
    if not (0.0 < _real(beta, "beta") <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not (_real(delta, "delta") > -1.0):
        raise ParameterError(f"delta must exceed -1, got {delta}")
    return math.lgamma(delta + 1.0) - math.lgamma(beta * delta + 1.0)


def _log_normal_abs_moment(q: float) -> float:
    if not (_real(q, "q") > -1.0):
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
def theoretical_variation_limit(params: GreyParams) -> float:
    """Mean critical dyadic variation mu = E|B(1)|^p, p = 2/alpha, of the (alpha, beta)
    family: the independent scale sqrt(Y) of B(1) splits it into
    Gamma(p/2+1)/Gamma(beta*p/2+1) times E|Z|^p."""
    if not isinstance(params, GreyParams):
        raise ParameterError(f"params must be a GreyParams, got {params!r}")
    p = 2.0 / params.alpha
    return math.exp(_log_mwright_moment(params.beta, 0.5 * p) + _log_normal_abs_moment(p))
