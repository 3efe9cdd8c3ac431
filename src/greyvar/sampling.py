"""Exact path simulation for fractional and grey Brownian motion.

Provides two exact fBm samplers (dense Cholesky and circulant embedding),
a one-sided stable sampler, the derived M-Wright subordinator sampler, and
their composition into grey Brownian paths (one subordinator draw per
path, multiplying the whole fBm trajectory).

Samplers take an explicit RngSpec and are bit-for-bit reproducible.  One
batch core draws column i from substream i; a single path is a batch of
one, and a batch column equals the single-path call bit for bit on
power-of-two grids, to rounding (< 1e-13) on Cholesky grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import CapacityError, InputError, NumericalError, ParameterError
from .params import GreyParams

__all__ = [
    "RngSpec",
    "DyadicGrid",
    "UniformGrid",
    "Grid",
    "SamplePath",
    "fbm_covariance",
    "sample_fbm_cholesky",
    "sample_fbm_circulant",
    "sample_fbm_cholesky_batch",
    "sample_fbm_circulant_batch",
    "sample_one_sided_stable",
    "sample_mwright",
    "sample_ggbm",
    "sample_ggbm_batch",
]

CHOLESKY_MAX_POINTS = 2 ** 12 + 1
CIRCULANT_MAX_LEVEL = 24
# Circulant eigenvalues in (-tol, 0) are rounding debris and are clipped;
# anything more negative indicates an invalid embedding.
CIRCULANT_EIG_TOL = 1e-9


@dataclass(frozen=True)
class RngSpec:
    """Seed pair identifying one reproducible random substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.stream_id < 0:
            raise ParameterError("stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def stream(self, offset: int) -> "RngSpec":
        return RngSpec(self.master_seed, self.stream_id + offset)


@dataclass(frozen=True)
class DyadicGrid:
    """Grid t_j = j / 2^level, j = 0..2^level."""

    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError("dyadic level must be nonnegative")

    @property
    def n_increments(self) -> int:
        return 2 ** self.level

    def times(self) -> np.ndarray:
        m = self.n_increments
        return np.arange(m + 1) / m


@dataclass(frozen=True)
class UniformGrid:
    """Grid t_j = j / n, j = 0..n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("uniform grid size must be positive")

    @property
    def n_increments(self) -> int:
        return self.n

    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


Grid = Union[DyadicGrid, UniformGrid]


@dataclass(frozen=True)
class SamplePath:
    """Values of one simulated path on a grid over [0, 1]."""

    grid: Grid
    values: np.ndarray
    params: Optional[GreyParams] = None
    seed: Optional[RngSpec] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) != self.grid.n_increments + 1:
            raise InputError(
                f"values length {values.shape} does not match grid with "
                f"{self.grid.n_increments} increments"
            )
        if values[0] != 0.0:
            raise InputError("paths start at zero by definition")
        if not np.all(np.isfinite(values)):
            raise InputError("path values must be finite")

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def dyadic_level(self) -> int:
        if not isinstance(self.grid, DyadicGrid):
            raise InputError("operation requires a dyadic grid")
        return self.grid.level


def fbm_covariance(hurst: float, s: float, t: float) -> float:
    """Covariance (s^2H + t^2H - |t-s|^2H) / 2 of standard fBm."""
    hurst = GreyParams.fbm(hurst).hurst
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ParameterError("times must lie in [0, 1]")
    h2 = 2.0 * hurst
    return 0.5 * (s ** h2 + t ** h2 - abs(t - s) ** h2)


def _cholesky_factor(hurst: float, grid: Grid) -> np.ndarray:
    times = grid.times()[1:]
    h2 = 2.0 * hurst
    t = times[:, None]
    s = times[None, :]
    cov = 0.5 * (t ** h2 + s ** h2 - np.abs(t - s) ** h2)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diag(cov)))
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(len(times)))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"fBm covariance not positive definite even with jitter (H={hurst})"
            ) from exc


@functools.lru_cache(maxsize=8)
def _circulant_sqrt_spectrum(hurst: float, m: int) -> np.ndarray:
    """sqrt of the first m + 1 eigenvalues of the 2m-point circulant embedding of
    unit-spacing fGn, entries 1..m-1 halved first; read-only, as threads share it."""
    h2 = 2.0 * hurst
    k = np.arange(m + 1, dtype=float)
    gamma = 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)
    c = np.concatenate([gamma, gamma[m - 1:0:-1]])
    eig = np.fft.fft(c).real
    if eig.min() < -CIRCULANT_EIG_TOL:
        raise NumericalError(
            f"circulant embedding produced eigenvalue {eig.min():.3e} below tolerance "
            f"(H={hurst}, level m={m})"
        )
    eig = np.clip(eig[: m + 1], 0.0, None)
    eig[1:m] /= 2.0
    root = np.sqrt(eig)
    root.flags.writeable = False
    return root


def _fbm_batch(
    hurst: float, beta: float, grid: Grid, rng: RngSpec, n_paths: int, cholesky: bool = False
) -> np.ndarray:
    """(n_points, n_paths) batch of sqrt(Y) times fBm, column i from rng.stream(i),
    as in sample_ggbm; cholesky forces Cholesky on power-of-two grids too."""
    m = grid.n_increments
    circulant = not cholesky and m & (m - 1) == 0
    if circulant and m > 2 ** CIRCULANT_MAX_LEVEL:
        raise CapacityError(f"grid size {m} exceeds the circulant cap 2^{CIRCULANT_MAX_LEVEL}")
    if not circulant and m + 1 > CHOLESKY_MAX_POINTS:
        raise CapacityError(f"{m + 1} grid points exceed the Cholesky cap {CHOLESKY_MAX_POINTS}")
    # Build the plan first: its temporaries are freed before the normals exist.
    plan = _circulant_sqrt_spectrum(hurst, m) if circulant else _cholesky_factor(hurst, grid)

    u, w = np.empty((2, n_paths))
    z = np.empty((2 * m if circulant else m, n_paths))
    for i in range(n_paths):
        gen = rng.stream(i).generator()
        if beta != 1.0:
            u[i] = gen.uniform(0.0, math.pi)
            w[i] = gen.standard_exponential()
        z[:, i] = gen.standard_normal(len(z))

    out = np.zeros((m + 1, n_paths))
    if circulant:
        v = np.empty((2 * m, n_paths), dtype=complex)
        v[[0, m]] = plan[[0, m], None] * z[:2]
        v[1:m] = plan[1:m, None] * (z[2:m + 1] + 1j * z[m + 1:])
        v[m + 1:] = np.conj(v[1:m][::-1])
        fgn = np.fft.fft(v, axis=0)[:m].real / math.sqrt(2 * m) * (1.0 / m) ** hurst
        np.cumsum(fgn, axis=0, out=out[1:])
    else:
        out[1:] = plan @ z
    # beta = 1 consumes no randomness, so the ggBm path then equals the
    # plain fBm path driven by the same substream.
    if beta != 1.0:
        out *= np.sqrt(_mwright_log_kanter(beta, u, w))
    return out


def _path(params: GreyParams, grid: Grid, rng: RngSpec, cholesky: bool = False) -> SamplePath:
    values = _fbm_batch(params.hurst, params.beta, grid, rng, 1, cholesky)[:, 0]
    return SamplePath(grid=grid, values=values, params=params, seed=rng)


def sample_fbm_cholesky(hurst: float, grid: Grid, rng: RngSpec) -> SamplePath:
    """Exact fBm draw on an arbitrary grid by dense Cholesky factorization."""
    return _path(GreyParams.fbm(hurst), grid, rng, cholesky=True)


def sample_fbm_circulant(hurst: float, level: int, rng: RngSpec) -> SamplePath:
    """Exact fBm draw on the dyadic grid of the given level by circulant
    embedding of the stationary increment covariance (O(m log m))."""
    return _path(GreyParams.fbm(hurst), DyadicGrid(level), rng)


def sample_fbm_cholesky_batch(
    hurst: float, grid: Grid, rng: RngSpec, n_paths: int
) -> np.ndarray:
    """(n_points, n_paths) fBm batch; column i uses substream rng.stream(i)."""
    return _fbm_batch(GreyParams.fbm(hurst).hurst, 1.0, grid, rng, n_paths, cholesky=True)


def sample_fbm_circulant_batch(
    hurst: float, level: int, rng: RngSpec, n_paths: int
) -> np.ndarray:
    return _fbm_batch(GreyParams.fbm(hurst).hurst, 1.0, DyadicGrid(level), rng, n_paths)


def _mwright_log_kanter(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """M-Wright draws Y = S^-beta from Kanter's U (uniform on (0, pi)) and
    W (unit exponential), 0 < beta < 1.

    Kanter's one-sided stable S = (a(U)/W)^((1-beta)/beta) is never formed:
    in log space Y = (W / a(U))^(1-beta) is finite and positive over all of
    (0, 1), where the power form under- and overflows as beta nears 1 or 0.
    """
    u = np.clip(u, 1e-300, math.pi * (1.0 - 1e-16))
    w = np.maximum(w, np.finfo(float).tiny)
    b1 = 1.0 - beta
    log_y = (
        b1 * np.log(w)
        - b1 * np.log(np.sin(b1 * u))
        - beta * np.log(np.sin(beta * u))
        + np.log(np.sin(u))
    )
    return np.exp(log_y)


def _kanter_draws(beta: float, gen: np.random.Generator, size: int) -> np.ndarray:
    return _mwright_log_kanter(beta, gen.uniform(0.0, math.pi, size), gen.standard_exponential(size))


def sample_one_sided_stable(beta: float, rng: RngSpec, size: Optional[int] = None):
    """Strictly positive stable draw(s) with E[exp(-s S)] = exp(-s^beta).

    Kanter's exact representation: S = (a(U)/W)^((1-beta)/beta) with U
    uniform on (0, pi) and W unit exponential, computed as Y^(-1/beta) from
    the M-Wright draw Y = S^-beta.  Raises NumericalError when a draw falls
    outside the positive normal doubles, as happens for beta near 0.
    """
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    y = _kanter_draws(beta, rng.generator(), 1 if size is None else size)
    log2_s = -np.log2(y) / beta
    outside = np.count_nonzero((log2_s < -1022.0) | (log2_s >= 1024.0))  # not a normal double
    if outside:
        raise NumericalError(f"beta={beta}: {outside} of {len(y)} stable draws out of double range")
    draws = y ** (-1.0 / beta)
    return float(draws[0]) if size is None else draws


def sample_mwright(beta: float, rng: RngSpec, size: Optional[int] = None):
    """Draw(s) of the M-Wright subordinator Y: S^(-beta) for one-sided
    stable S, which has density M_beta; beta = 1 is the unit point mass."""
    if not (0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if beta == 1.0:
        return 1.0 if size is None else np.ones(size)
    draws = _kanter_draws(beta, rng.generator(), 1 if size is None else size)
    return float(draws[0]) if size is None else draws


def sample_ggbm(params: GreyParams, grid: Grid, rng: RngSpec) -> SamplePath:
    """Grey Brownian path: sqrt(Y) times a standard fBm path with
    H = alpha/2, Y drawn once per path from the M-Wright law.

    Dyadic grids (and uniform grids whose size is a power of two) use the
    circulant sampler; other uniform grids fall back to Cholesky and
    inherit its size cap.  The subordinator is drawn before the Gaussian
    block, from the same substream.
    """
    return _path(params, grid, rng)


def sample_ggbm_batch(
    params: GreyParams, grid: Grid, rng: RngSpec, n_paths: int
) -> np.ndarray:
    """(n_points, n_paths) grey Brownian batch, one substream per path;
    column i reproduces sample_ggbm(params, grid, rng.stream(i)) bit for bit
    on power-of-two grids, to rounding (< 1e-13) on Cholesky grids."""
    return _fbm_batch(params.hurst, params.beta, grid, rng, n_paths)
