import tracemalloc

import numpy as np
import pytest

from greyvar.errors import ParameterError
from greyvar.sampling import RngSpec

MASTER_SEED = 20260810


@pytest.fixture
def rng():
    return RngSpec(MASTER_SEED, 0)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gl_quad(f, a, b, panels=24, order=48):
    """Composite Gauss-Legendre quadrature, local to the tests so oracle
    integrations do not depend on library internals."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        total += half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))
    return float(total)


def mwright_cutoff(beta, log_cut=21.0):
    """tau where the M-Wright tail exp(-b tau^(1/(1-beta))) reaches exp(-log_cut)."""
    b = (1.0 - beta) * beta ** (beta / (1.0 - beta))
    return (log_cut / b) ** (1.0 - beta)


def fbm_covariance(hurst, s, t):
    """Covariance (s^2H + t^2H - |t-s|^2H) / 2 of standard fBm at times s, t
    in [0, 1], elementwise over arrays."""
    if not 0.0 < hurst < 1.0:
        raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")
    h2 = 2.0 * hurst
    if not np.all((0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0)):
        raise ParameterError("times must lie in [0, 1]")
    return 0.5 * (s ** h2 + t ** h2 - np.abs(t - s) ** h2)


def fbm_cholesky_batch(hurst, grid, rng, n_paths):
    """(n_points, n_paths) exact fBm batch by dense Cholesky factorisation,
    row i of the normals rng.generator().standard_normal((n_paths, n_points - 1))
    driving column i: the independent oracle for the circulant sampler, with
    which it shares only the generator."""
    times = grid.times()[1:]
    cov = fbm_covariance(hurst, times[:, None], times[None, :])
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        factor = np.linalg.cholesky(cov + 1e-12 * float(np.max(np.diag(cov))) * np.eye(len(times)))
    rows = rng.generator().standard_normal((n_paths, len(times)))
    out = np.zeros((len(times) + 1, n_paths))
    # One column per path in C order, as BLAS rounds a product by the layout
    # of its operands.
    out[1:] = factor @ rows.T.copy()
    return out
