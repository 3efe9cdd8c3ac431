"""Statistical verification of the distributional laws of the simulator.

Each Monte Carlo check takes (params, its settings, n_paths, rng) and states
a few functionals of seeded ggBm paths and their closed-form values.  One
accumulator streams the paths and gives each functional's mean and standard
error, and one CheckReport holds any check's rows, one dict each, and its
verdict under a 4-standard-error pass policy.
special_identity_report checks the special functions deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import InputError, ParameterError
from .params import GreyParams, _integer, _real, _sequence
from .sampling import DyadicGrid, RngSpec, _block_paths, sample_ggbm_batch
from .special import _gauss_panels, mittag_leffler, mwright_pdf
from .special import gamma as _gamma

__all__ = [
    "CheckReport",
    "check_increment_cf",
    "check_even_moments",
    "check_mixing_decay",
    "gauss_legendre_integral",
    "special_identity_report",
]

Z_PASS = 4.0
_MAX_CF_LEVEL = 12
CF_MIN_PATHS = 10_000  # the fewest paths check_increment_cf, and so validate, takes


def _float(value, name: str) -> float:
    """value as a float, if it is a real number in the double range and not a
    bool; otherwise a ParameterError naming name."""
    try:
        return float(_real(value, name))
    except OverflowError:
        raise ParameterError(f"{name} is outside the double range, got {value!r}") from None


def _dyadic_points(times: Sequence[float]) -> Tuple[DyadicGrid, List[int]]:
    """Coarsest dyadic grid that contains every requested time, and the
    index of each time on it."""
    level = 0
    for t in times:
        den = float(t).as_integer_ratio()[1]  # a power of two for every finite float
        if den > 2 ** _MAX_CF_LEVEL:
            raise InputError(f"time {t} is not on a dyadic grid up to level {_MAX_CF_LEVEL}")
        level = max(level, den.bit_length() - 1)
    grid = DyadicGrid(level)
    return grid, [int(round(t * grid.n_increments)) for t in times]


def _means(
    params: GreyParams,
    grid: DyadicGrid,
    n_paths: int,
    rng: RngSpec,
    stats: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, List[float]]:
    """Mean and standard error of each row of stats(batch) over n_paths ggBm
    paths (an integer >= 1, checked before any draw), where stats maps a
    (points, paths) batch column by column to a (rows, paths) array.

    The paths are drawn one sampler block at a time, the block that starts
    at path d as one batch from rng.stream(d), so the draws depend on the
    block rule _block_paths.  Each block's row sums and sums of squares are
    added to the running totals as soon as it is drawn, so a check holds one
    block.
    The squares are of rows - shift, where shift is the first block's row
    mean, so a row whose variance is small against its mean square keeps
    the digits of its standard error.
    """
    n_paths = _integer(n_paths, "n_paths", 1)
    block = _block_paths(grid.n_increments)
    sums = sq_sums = 0.0
    for d in range(0, n_paths, block):
        rows = stats(sample_ggbm_batch(params, grid, rng.stream(d), min(block, n_paths - d)))
        sums = sums + rows.sum(axis=1)
        if d == 0:
            shift = rows.mean(axis=1)
        rows -= shift[:, None]
        rows *= rows
        sq_sums = sq_sums + rows.sum(axis=1)
    mean = sums / n_paths
    se = [
        math.sqrt(max(sq / n_paths - (m - c) ** 2, 0.0) / n_paths)
        for sq, m, c in zip(sq_sums, mean, shift)
    ]
    return mean, se


def _z_score(emp: float, ref: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if emp == ref else math.inf
    return (emp - ref) / se


@dataclass(frozen=True)
class CheckReport:
    """One Monte Carlo check: its name, the sampled params, the settings that
    define it, one dict per functional, and whether it passed."""

    check: str
    params: GreyParams
    settings: dict
    rows: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            **self.settings,
            "passed": self.passed,
            "rows": [dict(r) for r in self.rows],
        }


def check_increment_cf(
    params: GreyParams,
    thetas: Sequence[float],
    s: float,
    t: float,
    n_paths: int,
    rng: RngSpec,
) -> CheckReport:
    """Empirical characteristic function of x(t) - x(s) at each frequency in
    thetas against the Mittag-Leffler law E_beta(-theta^2 |t-s|^alpha / 2),
    over n_paths >= CF_MIN_PATHS (10^4) paths."""
    thetas = [_float(x, f"thetas[{i}]") for i, x in enumerate(_sequence(thetas, "thetas"))]
    if not thetas:
        raise ParameterError("thetas must hold at least one frequency")
    # theta^2 |t - s|^alpha / 2 is the Mittag-Leffler argument, and |t - s| <= 1.
    if not all(math.isfinite(x * x) for x in thetas):
        raise ParameterError(f"thetas must have finite squares, got {thetas}")
    if _real(s, "s") == _real(t, "t"):
        raise ParameterError("s and t must differ")
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ParameterError("times must lie in [0, 1]")
    n_paths = _integer(n_paths, "n_paths", CF_MIN_PATHS)
    grid, (i_s, i_t) = _dyadic_points([s, t])

    def stats(batch):
        delta = batch[i_t] - batch[i_s]
        return np.array([f(theta * delta) for theta in thetas for f in (np.cos, np.sin)])

    mean, se = _means(params, grid, n_paths, rng, stats)
    gap = abs(t - s)
    rows = []
    for k, theta in enumerate(thetas):
        re, im = float(mean[2 * k]), float(mean[2 * k + 1])
        se_re, se_im = se[2 * k], se[2 * k + 1]
        ref = mittag_leffler(params.beta, 0.5 * theta * theta * gap ** params.alpha)
        rows.append({
            "theta": theta, "empirical_re": re, "empirical_im": im, "theoretical": ref,
            "se_re": se_re, "se_im": se_im,
            "z_re": _z_score(re, ref, se_re), "z_im": _z_score(im, 0.0, se_im),
        })
    passed = all(abs(r[z]) <= Z_PASS for r in rows for z in ("z_re", "z_im"))
    settings = {"s": s, "t": t, "level": grid.level}
    return CheckReport("increment-cf", params, settings, tuple(rows), passed)


def even_moment_formula(params: GreyParams, order: int, t: float) -> float:
    """E x(t)^(2n) = (2n)! / (2^n Gamma(beta n + 1)) t^(n alpha)."""
    n = order // 2
    return (
        math.factorial(order)
        / (2.0 ** n * _gamma(params.beta * n + 1.0))
        * t ** (n * params.alpha)
    )


def check_even_moments(
    params: GreyParams,
    t: float,
    orders: Sequence[int],
    n_paths: int,
    rng: RngSpec,
) -> CheckReport:
    """Sample moments of x(t) against the closed form; each even order is
    paired with the preceding odd order, which must vanish.  Each orders[i]
    must be an integer, and each order 2 or 4."""
    orders = [_integer(order, f"orders[{i}]") for i, order in enumerate(_sequence(orders, "orders"))]
    if not orders:
        raise ParameterError("orders must hold at least one moment order")
    if any(order <= 0 or order % 2 != 0 or order > 4 for order in orders):
        raise ParameterError("orders must be even, positive, and at most 4")
    if not (0.0 < _real(t, "t") <= 1.0):
        raise ParameterError("t must lie in (0, 1]")
    grid, (i_t,) = _dyadic_points([t])
    all_orders = sorted({o for order in orders for o in (order - 1, order)})
    mean, se = _means(
        params, grid, n_paths, rng, lambda batch: np.array([batch[i_t] ** o for o in all_orders])
    )
    rows = []
    for order, emp, se_k in zip(all_orders, mean, se):
        ref = even_moment_formula(params, order, t) if order % 2 == 0 else 0.0
        emp = float(emp)
        rows.append({"order": order, "empirical": emp, "theoretical": ref, "se": se_k,
                     "z": _z_score(emp, ref, se_k)})
    passed = all(abs(r["z"]) <= Z_PASS for r in rows)
    return CheckReport("moments", params, {"t": t}, tuple(rows), passed)


def _mwright_tail_cutoff(beta: float) -> float:
    """tau beyond which M_beta(tau) drops below exp(-21), from the
    stretched-exponential tail exp(-b tau^(1/(1-beta)))."""
    b = (1.0 - beta) * beta ** (beta / (1.0 - beta))
    return (21.0 / b) ** (1.0 - beta)


def gauss_legendre_integral(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int = 24, order: int = 48
):
    """Composite fixed-order Gauss-Legendre quadrature on [a, b].

    f is called once, on the 1-d array of all panels' nodes, and returns
    one value per node, or one row of values per node to integrate several
    integrands over the same nodes.  Returns a float, or an array with one
    integral per column.  panels and order are integers >= 1, and a and b
    finite reals; anything else is a ParameterError.
    """
    panels, order = _integer(panels, "panels", 1), _integer(order, "order", 1)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(_float(value, name)):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    x, w = _gauss_panels(np.linspace(a, b, panels + 1), order)
    total = np.tensordot(w, np.asarray(f(x), dtype=float), axes=1)
    return float(total) if total.ndim == 0 else total


def special_identity_report() -> dict:
    """Deterministic special-function identity checks.

    The closed form exp(s^2) erfc(s) of the Mittag-Leffler function at
    beta = 1/2 over s in [0, 5], and the Laplace-transform identity between
    the M-Wright density and the Mittag-Leffler function.
    """
    rows = []

    err = max(abs(mittag_leffler(0.5, s) - math.exp(s * s) * math.erfc(s)) for s in np.arange(11) / 2)
    rows.append({"name": "E_1/2(-s) = exp(s^2) erfc(s), s in [0,5]", "error": float(err), "tol": 1e-12})

    worst = 0.0
    s_values = (0.1, 1.0, 5.0)
    for beta in (0.3, 0.5, 0.7):
        # One density evaluation per beta serves every s.
        vals = gauss_legendre_integral(
            lambda tau: np.exp(-np.outer(tau, s_values)) * mwright_pdf(beta, tau)[:, None],
            0.0,
            _mwright_tail_cutoff(beta),
        )
        for s, val in zip(s_values, vals):
            worst = max(worst, abs(float(val) - mittag_leffler(beta, s)))
    rows.append(
        {
            "name": "Laplace identity int exp(-s tau) M_beta = E_beta(-s)",
            "error": float(worst),
            "tol": 1e-6,
        }
    )

    for row in rows:
        row["passed"] = bool(row["error"] <= row["tol"])
    return {
        "check": "special-identities",
        "passed": all(r["passed"] for r in rows),
        "rows": rows,
    }


def check_mixing_decay(
    params: GreyParams,
    lags: Sequence[int],
    n_paths: int,
    rng: RngSpec,
) -> CheckReport:
    """Covariance of f = tanh of unit-spaced increments against lag.

    Unit increments are realized from one [0, 1] dyadic path by the
    self-similarity rescaling J^(alpha/2) x(j/J), J = 2^ceil(log2(max lag)),
    so lag j pairs f(increment 1) with f(increment j).  Lag 1 is the
    variance baseline; the decay criterion applies to the largest lag only.
    Each lags[i] is an integer in [1, 128], and lags holds at least one.
    """
    lags = _sequence(lags, "lags", InputError)
    lags = sorted({_integer(lag, f"lags[{i}]", 1, InputError) for i, lag in enumerate(lags)})
    if not lags:
        raise InputError("lags must hold at least one lag")
    if lags[-1] > 128:
        raise InputError("lags are capped at 128")
    grid = DyadicGrid(max(1, math.ceil(math.log2(lags[-1]))))
    level = grid.level
    scale = float(grid.n_increments) ** (params.alpha / 2.0)
    ends = np.array([1, *lags])  # increment j runs from point j - 1 to point j

    def stats(batch):
        # Rows: f(inc_1), then f(inc_lag) per lag, then f(inc_1) f(inc_lag) per lag.
        f = np.tanh((batch[ends] - batch[ends - 1]) * scale)
        return np.concatenate([f, f[0] * f[1:]])

    mean, se = _means(params, grid, n_paths, rng, stats)
    k = len(lags)
    rows = []
    for i, lag in enumerate(lags):
        cov = mean[1 + k + i] - mean[0] * mean[1 + i]
        se_prod = se[1 + k + i]
        rows.append({"lag": lag, "covariance": float(cov), "se": se_prod,
                     "z": _z_score(cov, 0.0, se_prod)})
    passed = bool(abs(rows[-1]["z"]) <= Z_PASS)
    return CheckReport("mixing-decay", params, {"level": level}, tuple(rows), passed)
