"""Exact path simulation for fractional and grey Brownian motion.

Grey Brownian paths, sqrt(Y) times fBm with one M-Wright draw Y per path,
are drawn by circulant embedding on every grid up to 2^24 increments: the
minimal embedding of fGn is nonnegative for every size and H (Dietrich &
Newsam 1997; Craigmile 2003).  fBm is the case beta = 1, that is
GreyParams(2H, 1.0).  Also: the M-Wright subordinator sampler.

Samplers take an explicit RngSpec and are bit-for-bit reproducible.  A
batch is drawn from one generator: every path's Kanter U, then every path's
W (beta < 1), then each path's normals in path order.  It runs path-major
and in blocks of paths of at most 2^16 half-spectrum entries (one path where
a path is longer): each path's normals fill one contiguous row, the FFT runs
along the rows back into them, and they are summed into column i of the
returned (n_points, n_paths) C-ordered array.  A batch thus holds its output,
one block and its paths' U, W and Y.  A block's normals and half spectrum
are views of one work array per thread, kept for the thread's next draw
while it holds at most one block (2^16 + 1 entries, about 2 MiB), so a run
of paths faults no fresh pages for them; a longer path's is its call's
alone.  A single path is a batch of one.

Each grid's plan is built once, under one lock across threads: the
circulant square-root spectrum is cached per (hurst, grid size), the 8 most
recent.  A circulant draw is one hfft of the half spectrum: the spectral
draw is Hermitian, so only its first m + 1 of 2m entries are formed.

RngSpec(master_seed, stream_id) is numpy's PCG64 seeded by
SeedSequence(master_seed, spawn_key=(stream_id,)).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import CapacityError, InputError, NumericalError, ParameterError
from .params import GreyParams, _integer, _real

__all__ = [
    "RngSpec",
    "DyadicGrid",
    "UniformGrid",
    "Grid",
    "SamplePath",
    "sample_mwright",
    "sample_ggbm",
    "sample_ggbm_batch",
]

CIRCULANT_MAX_LEVEL = 24


@dataclass(frozen=True)
class RngSpec:
    """Seed pair identifying one reproducible random substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            # No fixed-width wraparound in stream().
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def stream(self, offset: int) -> "RngSpec":
        return RngSpec(self.master_seed, self.stream_id + offset)


@dataclass(frozen=True)
class DyadicGrid:
    """Grid t_j = j / 2^level, j = 0..2^level."""

    level: int

    def __post_init__(self):
        object.__setattr__(self, "level", _integer(self.level, "dyadic level", 0))

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
        object.__setattr__(self, "n", _integer(self.n, "uniform grid size", 1))

    @property
    def n_increments(self) -> int:
        return self.n

    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


Grid = Union[DyadicGrid, UniformGrid]


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Values of one simulated path on a grid over [0, 1].

    ``values`` is a read-only view (the caller's array is not copied and
    stays writeable), so the variation sums that ``greyvar.variation``
    keeps in ``_sums`` cannot go stale.  Paths compare equal when grid,
    params, seed and values are equal; they are not hashable.
    """

    grid: Grid
    values: np.ndarray
    params: Optional[GreyParams] = None
    seed: Optional[RngSpec] = None
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float, order="C").view()
        values.flags.writeable = False
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grid, self.params, self.seed) == (
            other.grid, other.params, other.seed
        ) and np.array_equal(self.values, other.values)

    def __reduce__(self):
        # Copies and unpickled paths are rebuilt: read-only, no kept sums.
        return SamplePath, (self.grid, self.values, self.params, self.seed)

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def dyadic_level(self) -> int:
        if not isinstance(self.grid, DyadicGrid):
            raise InputError("operation requires a dyadic grid")
        return self.grid.level


def _fgn_autocovariance(hurst: float, k: np.ndarray) -> np.ndarray:
    """Autocovariance ((k+1)^2H - 2k^2H + |k-1|^2H) / 2 of unit-spacing fGn at
    increasing lags k >= 0.  From lag 8 on, where that form cancels (terms
    ~k^2H, value ~k^(2H-2)), it is k^2H sum_{j>=1} C(2H, 2j) k^-2j by Horner
    in k^-2 <= 1/64; ten terms truncate below 1e-18 relative."""
    a = 2.0 * hurst
    near, far = np.split(k, [np.searchsorted(k, 8.0)])
    ratios = [(a - 2 * j) * (a - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2)) for j in range(1, 10)]
    binom = np.cumprod([a * (a - 1.0) / 2.0] + ratios)  # C(a, 2j), j = 1..10
    series = np.polyval(np.append(binom[::-1], 0.0), far ** -2.0)
    direct = 0.5 * ((near + 1.0) ** a - 2.0 * near ** a + np.abs(near - 1.0) ** a)
    return np.concatenate([direct, series * far ** a])


@functools.lru_cache(maxsize=8)
def _circulant_sqrt_spectrum(hurst: float, m: int) -> np.ndarray:
    """sqrt of the first m + 1 eigenvalues of the 2m-point circulant embedding of
    unit-spacing fGn, entries 1..m-1 halved first; read-only, as threads share it.
    The exact eigenvalues are nonnegative and rounding moves them by about 4e-15
    of the largest, so those down to -1e-12 of it are clipped to zero."""
    # The embedding's first row is real and even: its spectrum is the hfft of
    # the row's first m + 1 entries.
    eig = np.fft.hfft(_fgn_autocovariance(hurst, np.arange(m + 1.0)), n=2 * m)[: m + 1]
    top, low = eig.max(), eig.min()
    if low < -1e-12 * top:
        raise NumericalError(
            f"fGn circulant spectrum lost its precision (H={hurst}, m={m}): eigenvalue "
            f"{low:.3e} against the largest {top:.3e}, where the exact spectrum is nonnegative"
        )
    eig = np.clip(eig, 0.0, None)
    eig[1:m] /= 2.0
    root = np.sqrt(eig)
    root.flags.writeable = False
    return root


_PLAN_LOCK = threading.Lock()


# Half-spectrum entries per block of a circulant batch: 1 MiB of complex
# spectrum and as much of normals, however many paths the batch has.
_BLOCK_ENTRIES = 2 ** 16
# Each thread's work array (.work), read and written by _fbm_batch alone: a
# block's half spectrum at its head and its normals at its tail, 4m + 2
# floats a path.  A thread keeps one array of at most one block of
# _BLOCK_ENTRIES + 1 entries (2 MiB).
_SCRATCH = threading.local()
_SCRATCH_KEEP = 4 * (_BLOCK_ENTRIES + 1)


def _block_paths(m: int) -> int:
    """Paths per block of a circulant batch with m increments: at most
    _BLOCK_ENTRIES half-spectrum entries, and at least one path."""
    return max(1, _BLOCK_ENTRIES // (m + 1))


def _fbm_batch(hurst: float, beta: float, grid: Grid, rng: RngSpec, n_paths: int) -> np.ndarray:
    """(n_points, n_paths) batch of sqrt(Y) times fBm by circulant embedding,
    drawn from rng.generator() alone: every path's Kanter U, then every
    path's W (beta < 1), then each path's 2m normals in path order.

    Paths are drawn in blocks of _block_paths(m) paths:
    each block's normals are transformed back into their own rows and summed
    into its columns of the output, so a batch holds its output, one block
    in the thread's work array, and U, W and Y.  The normals run on from
    block to block, so no byte depends on the block size.
    """
    n_paths = _integer(n_paths, "n_paths", 0)
    if hurst == 0.0:
        raise ParameterError("alpha must be at least 1e-323: its Hurst index alpha / 2 underflows to 0")
    # A dyadic grid is checked by its level: 2^level is not formed past the cap.
    # A uniform size past 64 bits is named by its power of two, as an int of
    # more than 4,300 digits cannot be formatted.
    if isinstance(grid, DyadicGrid):
        over, size = grid.level > CIRCULANT_MAX_LEVEL, f"2^{grid.level}"
    else:
        bits = grid.n.bit_length()
        over, size = grid.n > 2 ** CIRCULANT_MAX_LEVEL, grid.n if bits <= 64 else f"at least 2^{bits - 1}"
    if over:
        raise CapacityError(f"grid size {size} exceeds the circulant cap 2^{CIRCULANT_MAX_LEVEL}")
    m = grid.n_increments
    # Build the plan first: its temporaries are freed before the normals exist.
    # The lock keeps threads that miss the cache at once from each building it.
    with _PLAN_LOCK:
        root = _circulant_sqrt_spectrum(hurst, m)

    block = _block_paths(m)
    # A new work array comes before the output, which outlives the call: in
    # the other order the peak resident memory of a run of long single paths
    # is about 0.3 MB higher.
    size = min(block, n_paths) * (4 * m + 2)
    work = getattr(_SCRATCH, "work", None)
    if work is None or len(work) < size:
        work = np.empty(size)
        if size <= _SCRATCH_KEEP:  # a path longer than one block is its call's alone
            _SCRATCH.work = work
    out = np.zeros((m + 1, n_paths))
    gen = rng.generator()
    # beta = 1 draws no U or W, so the ggBm path then equals the plain fBm
    # path driven by the same generator.
    if beta != 1.0:
        u, w = gen.uniform(0.0, math.pi, n_paths), gen.standard_exponential(n_paths)
        scale = np.sqrt(_mwright_log_kanter(beta, u, w))
    for lo in range(0, n_paths, block):
        k = min(block, n_paths - lo)
        # One row of spectrum (head) and of normals (tail) per path.
        v = work[:2 * k * (m + 1)].view(complex).reshape(k, m + 1)
        z = work[len(work) - 2 * k * m:].reshape(k, 2 * m)
        gen.standard_normal(out=z)
        # The 2m-point spectral draw is Hermitian: only its first m + 1
        # entries are formed.  Its hfft is numpy's own, an unscaled irfft
        # of the conjugate, here conjugated in place rather than copied.
        v[:, [0, m]] = root[[0, m]] * z[:, :2]
        np.multiply(root[1:m], z[:, 2:m + 1], out=v.real[:, 1:m])
        np.multiply(root[1:m], z[:, m + 1:], out=v.imag[:, 1:m])
        np.conjugate(v, out=v)
        fgn = np.fft.irfft(v, n=2 * m, axis=1, norm="forward", out=z)[:, :m]
        fgn /= math.sqrt(2 * m)
        fgn *= (1.0 / m) ** hurst
        np.cumsum(fgn.T, axis=0, out=out[1:, lo:lo + k])
        if beta != 1.0:
            out[:, lo:lo + k] *= scale[lo:lo + k]
    return out


def _kanter_log_y(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unclipped log Y = (1-beta) (log W - log a(U)), 0 < beta < 1; with w = 1,
    the -(1-beta) log a(u) over which the M-Wright density integrates."""
    b1 = 1.0 - beta
    return (
        b1 * np.log(w)
        - b1 * np.log(np.sin(b1 * u))
        - beta * np.log(np.sin(beta * u))
        + np.log(np.sin(u))
    )


def _mwright_log_kanter(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """M-Wright draws Y = S^-beta from Kanter's U (uniform on (0, pi)) and
    W (unit exponential), 0 < beta < 1.

    Kanter's one-sided stable S = (a(U)/W)^((1-beta)/beta) is never formed:
    in log space Y = (W / a(U))^(1-beta) is finite and positive over all of
    (0, 1), where the power form under- and overflows as beta nears 1 or 0.
    """
    u = np.clip(u, 1e-300, math.pi * (1.0 - 1e-16))
    w = np.maximum(w, np.finfo(float).tiny)
    return np.exp(_kanter_log_y(beta, u, w))


def sample_mwright(beta: float, rng: RngSpec, size: Optional[int] = None):
    """Draw(s) of the M-Wright subordinator Y: S^(-beta) for one-sided
    stable S, which has density M_beta; beta = 1 is the unit point mass."""
    if not (0.0 < _real(beta, "beta") <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    n = 1 if size is None else _integer(size, "size", 0)
    if beta == 1.0:
        return 1.0 if size is None else np.ones(n)
    gen = rng.generator()
    draws = _mwright_log_kanter(beta, gen.uniform(0.0, math.pi, n), gen.standard_exponential(n))
    return float(draws[0]) if size is None else draws


def sample_ggbm(params: GreyParams, grid: Grid, rng: RngSpec) -> SamplePath:
    """Grey Brownian path: sqrt(Y) times a standard fBm path with
    H = alpha/2, Y drawn once per path from the M-Wright law.

    Every grid is drawn by circulant embedding, and more than 2^24
    increments is a CapacityError.  Y is drawn before the Gaussian block,
    from the same substream; with beta = 1 none is, so GreyParams(2h, 1.0)
    gives the plain fBm path of that substream.
    """
    values = _fbm_batch(params.hurst, params.beta, grid, rng, 1)[:, 0]
    return SamplePath(grid=grid, values=values, params=params, seed=rng)


def sample_ggbm_batch(
    params: GreyParams, grid: Grid, rng: RngSpec, n_paths: int
) -> np.ndarray:
    """(n_points, n_paths) grey Brownian batch drawn from rng.generator()
    alone: every path's Kanter U, then every path's W (beta < 1), then each
    path's normals in path order.  A batch of one is
    sample_ggbm(params, grid, rng).values bit for bit on every grid."""
    return _fbm_batch(params.hurst, params.beta, grid, rng, n_paths)
