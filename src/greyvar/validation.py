"""Statistical verification of the distributional laws of the simulator.

Each check simulates paths with a seeded substream layout, compares an
empirical functional against its closed-form counterpart, and reports
z-scores under a 4-standard-error pass policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from scipy.special import erfc

from .errors import InputError, ParameterError
from .params import GreyParams
from .sampling import DyadicGrid, RngSpec, sample_ggbm_batch
from .special import gamma as _gamma
from .special import mittag_leffler, mwright_pdf

__all__ = [
    "CfCheckSpec",
    "CfRow",
    "CfReport",
    "check_increment_cf",
    "MomentRow",
    "MomentReport",
    "check_even_moments",
    "MixingRow",
    "MixingReport",
    "check_mixing_decay",
    "mwright_tail_cutoff",
    "gauss_legendre_integral",
    "special_identity_report",
]

Z_PASS = 4.0
_CHUNK = 25_000
_MAX_CF_LEVEL = 12


@dataclass(frozen=True)
class CfCheckSpec:
    """Increment pair (s, t), probe frequencies, and sample size."""

    thetas: Tuple[float, ...]
    s: float
    t: float
    n_paths: int

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(x) for x in self.thetas))
        if self.s == self.t:
            raise ParameterError("s and t must differ")
        if not (0.0 <= self.s <= 1.0 and 0.0 <= self.t <= 1.0):
            raise ParameterError("times must lie in [0, 1]")
        if self.n_paths < 10_000:
            raise ParameterError("characteristic-function checks need >= 1e4 paths")


def _dyadic_level_for(times: Sequence[float], max_level: int = _MAX_CF_LEVEL) -> int:
    """Smallest dyadic level whose grid contains every requested time."""
    level = 0
    for t in times:
        frac = Fraction(t).limit_denominator(2 ** max_level)
        if float(frac) != t:
            raise InputError(f"time {t} is not on a dyadic grid up to level {max_level}")
        den = frac.denominator
        if den & (den - 1) != 0:
            raise InputError(f"time {t} is not dyadic")
        level = max(level, den.bit_length() - 1)
    return level


def _batches(
    params: GreyParams, grid: DyadicGrid, n_paths: int, rng: RngSpec
) -> Iterator[np.ndarray]:
    """ggBm batches of at most _CHUNK paths; path d is always drawn from
    substream rng.stream(d), whatever the chunk size."""
    for done in range(0, n_paths, _CHUNK):
        yield sample_ggbm_batch(params, grid, rng.stream(done), min(_CHUNK, n_paths - done))


def _z_score(emp: float, ref: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if emp == ref else math.inf
    return (emp - ref) / se


@dataclass(frozen=True)
class CfRow:
    theta: float
    empirical_re: float
    empirical_im: float
    theoretical: float
    se_re: float
    se_im: float
    z_re: float
    z_im: float


@dataclass(frozen=True)
class CfReport:
    params: GreyParams
    spec: CfCheckSpec
    level: int
    rows: Tuple[CfRow, ...]

    @property
    def passed(self) -> bool:
        return all(abs(r.z_re) <= Z_PASS and abs(r.z_im) <= Z_PASS for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "check": "increment-cf",
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "s": self.spec.s,
            "t": self.spec.t,
            "level": self.level,
            "passed": self.passed,
            "rows": [vars(r) for r in self.rows],
        }


def check_increment_cf(params: GreyParams, spec: CfCheckSpec, rng: RngSpec) -> CfReport:
    """Empirical characteristic function of x(t) - x(s) against the
    Mittag-Leffler law E_beta(-theta^2 |t-s|^alpha / 2)."""
    level = _dyadic_level_for([spec.s, spec.t])
    grid = DyadicGrid(level)
    times = grid.times()
    i_s = int(round(spec.s * grid.n_increments))
    i_t = int(round(spec.t * grid.n_increments))

    n = spec.n_paths
    sums = np.zeros((len(spec.thetas), 2))
    sq_sums = np.zeros((len(spec.thetas), 2))
    for batch in _batches(params, grid, n, rng):
        delta = batch[i_t] - batch[i_s]
        for k, theta in enumerate(spec.thetas):
            re = np.cos(theta * delta)
            im = np.sin(theta * delta)
            sums[k] += (re.sum(), im.sum())
            sq_sums[k] += ((re * re).sum(), (im * im).sum())

    gap = abs(spec.t - spec.s)
    rows = []
    for k, theta in enumerate(spec.thetas):
        mean_re, mean_im = sums[k] / n
        var_re = max(sq_sums[k][0] / n - mean_re ** 2, 0.0)
        var_im = max(sq_sums[k][1] / n - mean_im ** 2, 0.0)
        se_re = math.sqrt(var_re / n)
        se_im = math.sqrt(var_im / n)
        ref = mittag_leffler(params.beta, 0.5 * theta * theta * gap ** params.alpha)
        rows.append(
            CfRow(
                theta=theta,
                empirical_re=float(mean_re),
                empirical_im=float(mean_im),
                theoretical=ref,
                se_re=se_re,
                se_im=se_im,
                z_re=_z_score(float(mean_re), ref, se_re),
                z_im=_z_score(float(mean_im), 0.0, se_im),
            )
        )
    return CfReport(params=params, spec=spec, level=level, rows=tuple(rows))


@dataclass(frozen=True)
class MomentRow:
    order: int
    empirical: float
    theoretical: float
    se: float
    z: float


@dataclass(frozen=True)
class MomentReport:
    params: GreyParams
    t: float
    n_paths: int
    rows: Tuple[MomentRow, ...]

    @property
    def passed(self) -> bool:
        return all(abs(r.z) <= Z_PASS for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "check": "moments",
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "t": self.t,
            "passed": self.passed,
            "rows": [vars(r) for r in self.rows],
        }


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
) -> MomentReport:
    """Sample moments of x(t) against the closed form; each even order is
    paired with the preceding odd order, which must vanish."""
    for order in orders:
        if order <= 0 or order % 2 != 0 or order > 4:
            raise ParameterError("orders must be even, positive, and at most 4")
    if not (0.0 < t <= 1.0):
        raise ParameterError("t must lie in (0, 1]")
    level = _dyadic_level_for([t])
    grid = DyadicGrid(level)
    i_t = int(round(t * grid.n_increments))

    all_orders = sorted({o for order in orders for o in (order - 1, order)})
    sums = np.zeros(len(all_orders))
    sq_sums = np.zeros(len(all_orders))
    for batch in _batches(params, grid, n_paths, rng):
        x = batch[i_t]
        for k, order in enumerate(all_orders):
            powx = x ** order
            sums[k] += powx.sum()
            sq_sums[k] += (powx * powx).sum()

    rows = []
    for k, order in enumerate(all_orders):
        mean = sums[k] / n_paths
        var = max(sq_sums[k] / n_paths - mean ** 2, 0.0)
        se = math.sqrt(var / n_paths)
        ref = even_moment_formula(params, order, t) if order % 2 == 0 else 0.0
        rows.append(
            MomentRow(
                order=order,
                empirical=float(mean),
                theoretical=ref,
                se=se,
                z=_z_score(float(mean), ref, se),
            )
        )
    return MomentReport(params=params, t=t, n_paths=n_paths, rows=tuple(rows))


@dataclass(frozen=True)
class MixingRow:
    lag: int
    covariance: float
    se: float
    z: float


@dataclass(frozen=True)
class MixingReport:
    params: GreyParams
    n_paths: int
    level: int
    rows: Tuple[MixingRow, ...]

    @property
    def passed(self) -> bool:
        """Decay criterion: covariance consistent with zero at the largest lag."""
        return abs(self.rows[-1].z) <= Z_PASS

    def to_dict(self) -> dict:
        return {
            "check": "mixing-decay",
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "level": self.level,
            "passed": self.passed,
            "rows": [vars(r) for r in self.rows],
        }


def mwright_tail_cutoff(beta: float, log_cut: float = 21.0) -> float:
    """tau beyond which M_beta(tau) drops below exp(-log_cut), from the
    stretched-exponential tail exp(-b tau^(1/(1-beta)))."""
    b = (1.0 - beta) * beta ** (beta / (1.0 - beta))
    return (log_cut / b) ** (1.0 - beta)


def gauss_legendre_integral(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int = 24, order: int = 48
):
    """Composite fixed-order Gauss-Legendre quadrature on [a, b].

    f is called once, on the 1-d array of all panels' nodes, and returns
    one value per node, or one row of values per node to integrate several
    integrands over the same nodes.  Returns a float, or an array with one
    integral per column.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    total = np.tensordot(w, np.asarray(f(x), dtype=float), axes=1)
    return float(total) if total.ndim == 0 else total


def special_identity_report() -> dict:
    """Deterministic special-function identity checks.

    Exponential reduction of the Mittag-Leffler function at beta = 1, the
    closed form exp(1) erfc(1) at beta = 1/2, and the Laplace-transform
    identity between the M-Wright density and the Mittag-Leffler function.
    """
    rows = []

    s_grid = np.linspace(0.0, 50.0, 100)
    err = max(abs(mittag_leffler(1.0, float(s)) - math.exp(-float(s))) for s in s_grid)
    rows.append({"name": "E_1(-s) = exp(-s), s in [0,50]", "error": float(err), "tol": 1e-12})

    ref = math.e * float(erfc(1.0))
    err = abs(mittag_leffler(0.5, 1.0) - ref)
    rows.append({"name": "E_1/2(-1) = e erfc(1)", "error": float(err), "tol": 1e-8})

    worst = 0.0
    s_values = (0.1, 1.0, 5.0)
    for beta in (0.3, 0.5, 0.7):
        # One density evaluation per beta serves every s.
        vals = gauss_legendre_integral(
            lambda tau: np.exp(-np.outer(tau, s_values)) * mwright_pdf(beta, tau)[:, None],
            0.0,
            mwright_tail_cutoff(beta),
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
    probe: Callable[[np.ndarray], np.ndarray] = np.tanh,
) -> MixingReport:
    """Covariance of bounded probes of unit-spaced increments against lag.

    Unit increments are realized from one [0, 1] dyadic path by the
    self-similarity rescaling J^(alpha/2) x(j/J), J = 2^ceil(log2(max lag)),
    so lag j pairs f(increment 1) with f(increment j).  Lag 1 is the
    variance baseline; the decay criterion applies to the largest lag.
    """
    lags = sorted(set(int(l) for l in lags))
    if not lags or lags[0] < 1:
        raise InputError("lags must be positive integers")
    if lags[-1] > 128:
        raise InputError("lags are capped at 128")
    level = max(1, math.ceil(math.log2(lags[-1])))
    grid = DyadicGrid(level)
    j_max = grid.n_increments
    scale = float(j_max) ** (params.alpha / 2.0)

    k = len(lags)
    sum_f1 = 0.0
    sum_fj = np.zeros(k)
    sum_prod = np.zeros(k)
    sum_prod_sq = np.zeros(k)
    for batch in _batches(params, grid, n_paths, rng):
        inc = np.diff(batch, axis=0) * scale
        f = probe(inc)
        f1 = f[0]
        sum_f1 += f1.sum()
        for i, lag in enumerate(lags):
            fj = f[lag - 1]
            prod = f1 * fj
            sum_fj[i] += fj.sum()
            sum_prod[i] += prod.sum()
            sum_prod_sq[i] += (prod * prod).sum()

    mean_f1 = sum_f1 / n_paths
    rows = []
    for i, lag in enumerate(lags):
        mean_fj = sum_fj[i] / n_paths
        mean_prod = sum_prod[i] / n_paths
        cov = mean_prod - mean_f1 * mean_fj
        var_prod = max(sum_prod_sq[i] / n_paths - mean_prod ** 2, 0.0)
        se = math.sqrt(var_prod / n_paths)
        rows.append(MixingRow(lag=lag, covariance=float(cov), se=se, z=_z_score(cov, 0.0, se)))
    return MixingReport(params=params, n_paths=n_paths, level=level, rows=tuple(rows))
