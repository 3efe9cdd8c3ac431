import math
import pickle
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

from greyvar import sampling
from greyvar.cli import run_config
from greyvar.errors import CapacityError, InputError, ParameterError
from greyvar.params import GreyParams
from greyvar.sampling import (
    DyadicGrid,
    RngSpec,
    SamplePath,
    UniformGrid,
    _circulant_sqrt_spectrum,
    _fgn_autocovariance,
    sample_ggbm,
    sample_ggbm_batch,
    sample_mwright,
)
from greyvar.special import mwright_moment
from greyvar.variation import p_variation_sum

from conftest import fbm_cholesky_batch, fbm_covariance, traced_peak


class TestCovariance:
    def test_brownian_value(self):
        assert fbm_covariance(0.5, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_diagonal_is_power_law(self):
        for hurst, t in [(0.3, 0.25), (0.5, 0.7), (0.8, 1.0)]:
            assert fbm_covariance(hurst, t, t) == pytest.approx(t ** (2 * hurst), rel=1e-14)

    def test_h075_value(self):
        # the |t-s| term cancels the s term here
        assert fbm_covariance(0.75, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        assert fbm_covariance(0.7, 0.3, 0.9) == fbm_covariance(0.7, 0.9, 0.3)

    def test_errors(self):
        with pytest.raises(ParameterError):
            fbm_covariance(1.0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            fbm_covariance(0.5, -0.1, 0.5)


def test_fbm_samplers_check_hurst_first(rng):
    for call in (
        lambda: sample_ggbm(GreyParams(2 * 0.0, 1.0), DyadicGrid(25), rng),
        lambda: sample_ggbm_batch(GreyParams(2 * float("nan"), 1.0), DyadicGrid(25), rng, 2),
    ):
        with pytest.raises(ParameterError, match="alpha must lie in"):
            call()


@pytest.mark.parametrize("beta", [0.6, 1.0])
def test_alpha_whose_hurst_underflows_is_named(beta, rng):
    # alpha = 5e-324 halves to a Hurst index of 0.0, which drew all-zero paths.
    for call in (
        lambda: sample_ggbm(GreyParams(5e-324, beta), DyadicGrid(3), rng),
        lambda: sample_ggbm_batch(GreyParams(5e-324, beta), DyadicGrid(3), rng, 2),
    ):
        with pytest.raises(ParameterError, match="^alpha must be at least 1e-323"):
            call()
    batch = sample_ggbm_batch(GreyParams(1e-323, beta), DyadicGrid(3), rng, 2)
    assert np.all(np.isfinite(batch)) and np.all(batch[1:] != 0.0)


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", ["1.0", None, True, np.True_, 1j, [1.0]], ids=repr)
def test_params_reject_non_real_fields(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be a real number"):
        GreyParams(**{"alpha": 1.0, "beta": 1.0, field: value})


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_params_store_real_fields_as_given(field):
    for value in (1, np.int64(1), np.float32(0.5), np.float64(0.5)):
        assert getattr(GreyParams(**{"alpha": 1.0, "beta": 1.0, field: value}), field) is value


class TestSamplePath:
    def test_invariants(self):
        with pytest.raises(InputError):
            SamplePath(DyadicGrid(1), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(InputError):
            SamplePath(DyadicGrid(1), np.array([0.0, np.nan, 0.3]))
        with pytest.raises(InputError):
            SamplePath(DyadicGrid(1), np.array([0.0, 0.2]))

    def test_increments(self):
        path = SamplePath(DyadicGrid(1), np.array([0.0, 1.0, -1.0]))
        assert np.array_equal(path.increments(), [1.0, -2.0])


class TestCholesky:
    """The dense Cholesky oracle of tests/conftest.py."""

    def test_determinism(self, rng):
        a = fbm_cholesky_batch(0.7, DyadicGrid(6), rng, 1)[:, 0]
        b = fbm_cholesky_batch(0.7, DyadicGrid(6), rng, 1)[:, 0]
        assert np.array_equal(a, b)
        assert a[0] == 0.0

    @pytest.mark.parametrize("grid, n_paths", [(UniformGrid(100), 5), (DyadicGrid(6), 3), (UniformGrid(7), 1)])
    def test_batch_is_factor_times_column_major_normals(self, grid, n_paths, rng):
        # BLAS rounds by operand layout: the normals must reach it in C order,
        # one column per path.
        times = grid.times()[1:]
        factor = np.linalg.cholesky(fbm_covariance(0.6, times[:, None], times[None, :]))
        z = _numpy_generator(rng).standard_normal((n_paths, len(times))).T.copy()
        expected = np.zeros((len(times) + 1, n_paths))
        expected[1:] = factor @ z
        assert fbm_cholesky_batch(0.6, grid, rng, n_paths).tobytes() == expected.tobytes()

    def test_brownian_increment_variance(self, rng):
        batch = fbm_cholesky_batch(0.5, DyadicGrid(10), rng, 10_000)
        inc = np.diff(batch, axis=0)
        var = inc.var()
        se = inc.var() * math.sqrt(2.0 / inc.size)
        assert abs(var - 2.0 ** -10) <= 4.0 * se

    def test_covariance_h07(self, rng):
        batch = fbm_cholesky_batch(0.7, DyadicGrid(4), rng.stream(50), 30_000)
        prod = batch[8] * batch[16]
        se = prod.std() / math.sqrt(len(prod))
        assert abs(prod.mean() - fbm_covariance(0.7, 0.5, 1.0)) <= 4.0 * se


class TestCirculant:
    def test_determinism(self, rng):
        a = sample_ggbm(GreyParams(2 * 0.3, 1.0), DyadicGrid(8), rng)
        b = sample_ggbm(GreyParams(2 * 0.3, 1.0), DyadicGrid(8), rng)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("level", [25, 14_285, 10 ** 9])
    def test_level_guard(self, level, rng):
        # 2^14285 has more digits than Python converts to text, and 2^(10^9)
        # takes 125 MB: the level is checked before 2^level is formed.
        match = rf"grid size 2\^{level} exceeds the circulant cap 2\^24"

        def refuse():
            with pytest.raises(CapacityError, match=match):
                sample_ggbm(GreyParams(2 * 0.5, 1.0), DyadicGrid(level), rng)
            with pytest.raises(CapacityError, match=match):
                sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(level), rng)

        assert traced_peak(refuse) < 2 ** 20

    def test_cached_spectrum_is_shared_and_read_only(self):
        root = _circulant_sqrt_spectrum(0.7, 16)
        assert root is _circulant_sqrt_spectrum(0.7, 16)
        with pytest.raises(ValueError):
            root[0] = 0.0

    def test_increment_variance_level12(self, rng):
        batch = sample_ggbm_batch(GreyParams(2 * 0.5, 1.0), DyadicGrid(12), rng.stream(100), 2_000)
        inc = np.diff(batch, axis=0)
        var = inc.var()
        se = var * math.sqrt(2.0 / inc.size)
        assert abs(var - 2.0 ** -12) <= 4.0 * se

    def test_lag_one_autocorrelation_h06(self, rng):
        batch = sample_ggbm_batch(GreyParams(2 * 0.6, 1.0), DyadicGrid(10), rng.stream(200), 20_000)
        inc = np.diff(batch, axis=0)
        rho = float((inc[:-1] * inc[1:]).mean() / inc.var())
        # (2^(2H) - 2)/2 at H = 0.6
        assert rho == pytest.approx(0.1486983549970350, abs=0.004)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_agrees_with_cholesky(self, hurst, rng):
        n = 10_000
        chol = fbm_cholesky_batch(hurst, DyadicGrid(10), rng.stream(300), n)
        circ = sample_ggbm_batch(GreyParams(2 * hurst, 1.0), DyadicGrid(10), rng.stream(300 + n), n)
        stat = ks_2samp(np.diff(chol, axis=0)[0], np.diff(circ, axis=0)[0])
        assert stat.pvalue > 0.001

    @pytest.mark.parametrize("hurst", [0.01, 0.3, 0.5, 0.8, 0.99])
    def test_autocovariance_against_mpmath(self, hurst):
        # The series branch, from lag 8 on; below it the direct form is kept.
        lags = np.array([8, 9, 100, 12345, 2 ** 20, 2 ** 24], dtype=float)
        got = _fgn_autocovariance(hurst, lags)
        with mpmath.workdps(40):
            a = 2 * mpmath.mpf(hurst)
            for k, value in zip(lags, got):
                k = mpmath.mpf(float(k))
                ref = ((k + 1) ** a - 2 * k ** a + (k - 1) ** a) / 2
                assert abs(mpmath.mpf(float(value)) - ref) <= 1e-15 * abs(ref), (hurst, k)

    @pytest.mark.parametrize(
        "hurst, m",
        # The first two raised NumericalError while the autocovariance
        # cancelled at large lags; the odd and prime sizes are non-dyadic grids.
        [(0.99, 2 ** 20), (0.95, 2 ** 21)]
        + [(h, m) for h in (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999) for m in (3, 5, 999, 1009, 4097)],
    )
    def test_spectrum_positive(self, hurst, m):
        # Uncached, so that the large spectra are not kept.
        root = _circulant_sqrt_spectrum.__wrapped__(hurst, m)
        assert root.shape == (m + 1,) and root.min() > 0.0


class TestStableSampler:
    """The one-sided stable S = Y^(-1/beta) behind the M-Wright draws Y."""

    def test_positive_and_deterministic(self, rng):
        draws = sample_mwright(0.5, rng, 1000) ** (-1.0 / 0.5)
        again = sample_mwright(0.5, rng, 1000) ** (-1.0 / 0.5)
        assert np.array_equal(draws, again)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_laplace_transform(self, beta, rng):
        draws = sample_mwright(beta, rng.stream(int(beta * 10)), 10 ** 6) ** (-1.0 / beta)
        for s in [0.5, 1.0, 2.0]:
            x = np.exp(-s * draws)
            se = x.std() / 1000.0
            assert abs(x.mean() - math.exp(-(s ** beta))) <= 4.0 * se

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5, float("nan")])
    def test_errors(self, beta, rng):
        with pytest.raises(ParameterError, match="beta must lie in"):
            sample_mwright(beta, rng)

    @pytest.mark.parametrize("beta", ["a", None, True], ids=repr)
    def test_non_real_beta_is_named(self, beta, rng):
        with pytest.raises(ParameterError, match="^beta must be a real number"):
            sample_mwright(beta, rng, 2)


class TestMWrightSampler:
    def test_beta_one_is_unit(self, rng):
        assert sample_mwright(1.0, rng) == 1.0
        assert np.array_equal(sample_mwright(1.0, rng, 5), np.ones(5))

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_moments(self, beta, rng):
        draws = sample_mwright(beta, rng.stream(int(beta * 100)), 10 ** 6)
        for delta in [0.5, 1.0, 2.0]:
            x = draws ** delta
            se = x.std() / 1000.0
            assert abs(x.mean() - mwright_moment(beta, delta)) <= 4.0 * se


class TestDrawCount:
    SAMPLERS = [(sample_mwright, 0.5), (sample_mwright, 1.0)]

    @pytest.mark.parametrize(("sampler", "beta"), SAMPLERS)
    @pytest.mark.parametrize("size", [-1, 2.5, np.float64(3.0), True, "3"])
    def test_bad_size_is_parameter_error(self, sampler, beta, size, rng):
        with pytest.raises(ParameterError, match="size must be an integer >= 0"):
            sampler(beta, rng, size)

    @pytest.mark.parametrize(("sampler", "beta"), SAMPLERS)
    def test_integer_sizes(self, sampler, beta, rng):
        assert sampler(beta, rng, 0).shape == (0,)
        assert sampler(beta, rng, np.int64(3)).tobytes() == sampler(beta, rng, 3).tobytes()


class TestSubordinatorRange:
    """The subordinator stays finite over all of (0, 1], including the ends
    where Kanter's power form under- and overflows."""

    @pytest.mark.parametrize("beta", [0.001, 0.5, 0.99, 0.9999])
    def test_draws_finite_positive_with_moments(self, beta, rng):
        draws = sample_mwright(beta, rng.stream(500 + int(beta * 1000)), 200_000)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
        for delta in [1.0, 2.0]:
            x = draws ** delta
            se = x.std() / math.sqrt(len(x))
            assert abs(x.mean() - mwright_moment(beta, delta)) <= 4.0 * se

    @pytest.mark.parametrize("beta", [0.001, 0.9999])
    def test_ggbm_paths_never_rejected(self, beta, rng):
        params = GreyParams(1.0, beta)
        for i in range(1000):
            path = sample_ggbm(params, DyadicGrid(4), rng.stream(i))
            assert np.all(np.isfinite(path.values))


class TestGgbm:
    def test_beta_one_reduces_to_fbm_exactly(self, rng, monkeypatch):
        # fBm with hurst 0.7 is GreyParams(1.4, 1.0): beta = 1 draws no subordinator.
        f = sample_ggbm(GreyParams(1.4, 1.0), DyadicGrid(8), rng)
        monkeypatch.setattr(sampling, "_mwright_log_kanter", lambda *args: pytest.fail("Y drawn"))
        assert np.array_equal(sample_ggbm(GreyParams(1.4, 1.0), DyadicGrid(8), rng).values, f.values)

    @pytest.mark.parametrize(
        "grid, beta, atol",
        [
            (DyadicGrid(5), 0.7, 0.0),
            (DyadicGrid(5), 1.0, 0.0),
            (UniformGrid(256), 0.7, 0.0),
            (UniformGrid(256), 1.0, 0.0),
            (UniformGrid(100), 0.7, 0.0),
            (UniformGrid(999), 0.7, 0.0),
        ],
        ids=["dyadic5-0.7", "dyadic5-1.0", "uniform256-0.7", "uniform256-1.0", "uniform100-0.7",
             "uniform999-0.7"],
    )
    def test_batch_equals_singles(self, grid, beta, atol, rng):
        # A batch of one is the single path; a larger batch runs on in the
        # same generator, as the one-generator reference draws it.
        params = GreyParams(1.2, beta)
        single = sample_ggbm(params, grid, rng).values
        np.testing.assert_allclose(sample_ggbm_batch(params, grid, rng, 1)[:, 0], single, rtol=0.0, atol=atol)
        expected = _column_major_batch(params.hurst, beta, grid, rng, 6)
        np.testing.assert_allclose(sample_ggbm_batch(params, grid, rng, 6), expected, rtol=0.0, atol=atol)

    def test_uniform_power_of_two_grid(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(256), rng)
        assert isinstance(path.grid, UniformGrid)
        assert len(path.values) == 257

    def test_uniform_odd_grid_and_cap(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(5001), rng)
        assert len(path.values) == 5002 and np.all(np.isfinite(path.values))

        def refuse():
            with pytest.raises(CapacityError, match="circulant cap"):
                sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(2 ** 24 + 1), rng)

        assert traced_peak(refuse) < 2 ** 20  # the cap is checked before any array is built

    def test_uniform_size_too_long_to_format(self, rng):
        # 10^5000 has more digits than Python converts to text.
        def refuse():
            with pytest.raises(CapacityError, match=r"grid size at least 2\^16609 exceeds the circulant cap"):
                sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(10 ** 5000), rng)

        assert traced_peak(refuse) < 2 ** 20

    def test_never_factorises(self, rng, monkeypatch):
        def refuse(a):
            raise AssertionError("sample_ggbm reached a Cholesky factorisation")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        path = sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(999), rng)
        assert len(path.values) == 1000

    def test_variance_at_one(self, rng):
        # E x(1)^2 = 1/Gamma(beta + 1)
        batch = sample_ggbm_batch(GreyParams(1.2, 0.6), DyadicGrid(3), rng.stream(400), 50_000)
        sq = batch[-1] ** 2
        se = sq.std() / math.sqrt(len(sq))
        assert abs(sq.mean() - 1.1191749540701223) <= 4.0 * se

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_covariance_structure(self, alpha, beta, rng):
        # E x(s) x(t) = (t^a + s^a - |t-s|^a) / (2 Gamma(beta + 1))
        params = GreyParams(alpha, beta)
        batch = sample_ggbm_batch(
            params, DyadicGrid(2), rng.stream(int(1000 * alpha + 100 * beta)), 100_000
        )
        norm = 1.0 / math.gamma(beta + 1.0)
        for (i, j, s, t) in [(1, 2, 0.25, 0.5), (2, 4, 0.5, 1.0)]:
            prod = batch[i] * batch[j]
            ref = norm * fbm_covariance(alpha / 2.0, s, t)
            se = prod.std() / math.sqrt(len(prod))
            assert abs(prod.mean() - ref) <= 4.0 * se

    def test_self_similarity_of_marginals(self, rng):
        # x(t) / t^(alpha/2) has a t-independent law
        params = GreyParams(1.2, 0.6)
        batch = sample_ggbm_batch(params, DyadicGrid(2), rng.stream(800), 20_000)
        a = batch[1] / 0.25 ** 0.6
        b = batch[4]
        assert ks_2samp(a, b).pvalue > 0.001

    def test_provenance_fields(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(4), rng)
        assert path.params == GreyParams(1.2, 0.7)
        assert path.seed == rng
        assert path.values[0] == 0.0


def _numpy_generator(rng):
    """numpy's own generator for a substream: the reference for the seeding."""
    seq = np.random.SeedSequence(entropy=rng.master_seed, spawn_key=(rng.stream_id,))
    return np.random.Generator(np.random.PCG64(seq))


def _numpy_draws(beta, rng, n_paths, n_normals):
    """A batch's draws from one numpy-built generator: every path's U, then
    every path's W (beta < 1), then each path's normals, one column each."""
    gen = _numpy_generator(rng)
    u, w = np.zeros((2, n_paths))
    if beta != 1.0:
        u, w = gen.uniform(0.0, math.pi, n_paths), gen.standard_exponential(n_paths)
    return u, w, gen.standard_normal((n_paths, n_normals)).T


def _numpy_kanter(beta, rng, size):
    """M-Wright draws from a numpy-built generator, in the samplers' order."""
    gen = _numpy_generator(rng)
    return sampling._mwright_log_kanter(beta, gen.uniform(0.0, math.pi, size), gen.standard_exponential(size))


@pytest.mark.parametrize("beta", [1e-6, 0.05, 0.3, 0.5, 0.9, 0.999])
def test_kanter_draws_equal_the_four_term_expression(beta):
    """_mwright_log_kanter, which shares _kanter_log_y with the M-Wright
    density, gives the bytes of the expression it was written as."""
    u = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, math.pi, 129)[1:], [math.pi]])[:, None]
    w = np.concatenate([[0.0, 1e-310, 1e-12], np.geomspace(1e-6, 40.0, 31)])[None, :]
    uc = np.clip(u, 1e-300, math.pi * (1.0 - 1e-16))
    wc = np.maximum(w, np.finfo(float).tiny)
    b1 = 1.0 - beta
    old = np.exp(
        b1 * np.log(wc)
        - b1 * np.log(np.sin(b1 * uc))
        - beta * np.log(np.sin(beta * uc))
        + np.log(np.sin(uc))
    )
    assert sampling._mwright_log_kanter(beta, u, w).tobytes() == old.tobytes()


class TestSubstreamSeeding:
    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64, 2 ** 128 + 5]
    IDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40]

    def test_states_equal_numpy_seeding(self):
        for seed in self.SEEDS:
            for i in self.IDS:
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
                gen = RngSpec(seed, i).generator()
                assert gen.bit_generator.state == np.random.PCG64(seq).state, (seed, i)

    def test_run_straddling_two_to_the_32(self):
        rng = RngSpec(20260810, 2 ** 32 - 3)
        expected = [_numpy_generator(rng.stream(k)).bit_generator.state for k in range(6)]
        assert [rng.stream(k).generator().bit_generator.state for k in range(6)] == expected

    @pytest.mark.parametrize("beta", [0.6, 1.0])
    def test_batch_across_two_to_the_32_matches_numpy(self, beta):
        params = GreyParams(1.2, beta)
        rng = RngSpec(20260810, 2 ** 32 - 3)
        got = sample_ggbm_batch(params, DyadicGrid(4), rng, 6)
        expected = _column_major_batch(params.hurst, beta, DyadicGrid(4), rng, 6)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("beta", [0.3, 0.9])
    def test_subordinator_draws_match_numpy(self, beta):
        rng = RngSpec(2 ** 64, 2 ** 32)
        y = _numpy_kanter(beta, rng, 100)
        assert sample_mwright(beta, rng, 100).tobytes() == y.tobytes()
        (y1,) = _numpy_kanter(beta, rng, 1)
        assert sample_mwright(beta, rng) == y1

    @pytest.mark.parametrize("spec", [(-1, 0), (1.5, 0), (True, 0), ("7", 0), (0, -1), (0, 2.0)])
    def test_rngspec_rejects_bad_seeds(self, spec):
        with pytest.raises(ParameterError):
            RngSpec(*spec)

    def test_rngspec_accepts_numpy_integers(self):
        assert RngSpec(np.int64(7), np.uint32(3)).generator().random() == RngSpec(7, 3).generator().random()
        assert RngSpec(0, np.uint32(2 ** 32 - 1)).stream(1).stream_id == 2 ** 32

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_small_batches_match_numpy(self, n):
        rng = RngSpec(2 ** 64 + 1, 2 ** 32 - 2)
        expected = [_numpy_generator(rng.stream(k)).bit_generator.state for k in range(n)]
        assert [rng.stream(k).generator().bit_generator.state for k in range(n)] == expected
        assert rng.generator().bit_generator.state == expected[0]


class TestBatchSize:
    @pytest.mark.parametrize(
        "draw, n_points",
        [
            (lambda n, rng: sample_ggbm_batch(GreyParams(1.2, 0.7), DyadicGrid(3), rng, n), 9),
            (lambda n, rng: sample_ggbm_batch(GreyParams(2 * 0.6, 1.0), DyadicGrid(3), rng, n), 9),
        ],
        ids=["ggbm", "fbm-circulant"],
    )
    def test_negative_rejected_zero_empty(self, draw, n_points, rng):
        with pytest.raises(ParameterError, match="n_paths"):
            draw(-1, rng)
        assert draw(0, rng).shape == (n_points, 0)

    @pytest.mark.parametrize("value", [True, 2.0, "2", np.float64(2.0)], ids=repr)
    @pytest.mark.parametrize(
        "draw",
        [
            lambda n, rng: sample_ggbm_batch(GreyParams(1.2, 0.7), DyadicGrid(3), rng, n),
        ],
        ids=["ggbm"],
    )
    def test_non_integer_count_names_n_paths(self, draw, value, rng):
        with pytest.raises(ParameterError, match="n_paths must be an integer"):
            draw(value, rng)
        assert draw(np.int64(2), rng).tobytes() == draw(2, rng).tobytes()


def _full_fft_batch(hurst, beta, level, rng, n_paths):
    """A circulant batch through the full 2m-point complex FFT of the
    conjugate-mirrored spectral draw: the reference for the half-spectrum hfft."""
    m = 2 ** level
    root = _circulant_sqrt_spectrum(hurst, m)
    u, w, z = _numpy_draws(beta, rng, n_paths, 2 * m)
    v = np.empty((2 * m, n_paths), dtype=complex)
    v[[0, m]] = root[[0, m], None] * z[:2]
    v[1:m] = root[1:m, None] * (z[2:m + 1] + 1j * z[m + 1:])
    v[m + 1:] = np.conj(v[1:m][::-1])
    fgn = np.fft.fft(v, axis=0)[:m].real / math.sqrt(2 * m) * (1.0 / m) ** hurst
    out = np.zeros((m + 1, n_paths))
    np.cumsum(fgn, axis=0, out=out[1:])
    if beta != 1.0:
        out *= np.sqrt(sampling._mwright_log_kanter(beta, u, w))
    return out


def _column_major_batch(hurst, beta, grid, rng, n_paths):
    """The circulant batch with one column of normals and half spectrum per
    path, transformed along axis 0: the reference for the path-major rows."""
    m = grid.n_increments
    root = _circulant_sqrt_spectrum(hurst, m)
    u, w, z = _numpy_draws(beta, rng, n_paths, 2 * m)
    out = np.zeros((m + 1, n_paths))
    v = np.empty((m + 1, n_paths), dtype=complex)
    v[[0, m]] = root[[0, m], None] * z[:2]
    np.multiply(root[1:m, None], z[2:m + 1], out=v.real[1:m])
    np.multiply(root[1:m, None], z[m + 1:], out=v.imag[1:m])
    fgn = np.fft.hfft(v, n=2 * m, axis=0)[:m] / math.sqrt(2 * m) * (1.0 / m) ** hurst
    np.cumsum(fgn, axis=0, out=out[1:])
    if beta != 1.0:
        out *= np.sqrt(sampling._mwright_log_kanter(beta, u, w))
    return out


class TestPathMajorDraws:
    @pytest.mark.parametrize(
        "grid", [DyadicGrid(0), DyadicGrid(1), DyadicGrid(6), DyadicGrid(10), UniformGrid(999)], ids=repr
    )
    @pytest.mark.parametrize("beta", [0.3, 0.6, 1.0])
    def test_batch_equals_column_major_reference(self, grid, beta):
        params = GreyParams(1.2, beta)
        rng = RngSpec(2 ** 64 + 3, 2 ** 32 - 4)
        for n_paths in (0, 1, 7):
            batch = sample_ggbm_batch(params, grid, rng, n_paths)
            assert batch.shape == (grid.n_increments + 1, n_paths)
            assert batch.flags.c_contiguous
            expected = _column_major_batch(params.hurst, beta, grid, rng, n_paths)
            assert batch.tobytes() == expected.tobytes(), n_paths


def _block(grid):
    """Paths per block of a circulant batch on grid."""
    return max(1, sampling._BLOCK_ENTRIES // (grid.n_increments + 1))


class TestStreamedBlocks:
    RNG = RngSpec(2 ** 64 + 5, 2 ** 32 - 9)

    @pytest.mark.parametrize(
        "grid", [DyadicGrid(0), DyadicGrid(6), DyadicGrid(10), UniformGrid(999)], ids=repr
    )
    @pytest.mark.parametrize("beta", [0.3, 1.0])
    def test_blocks_equal_column_major_reference(self, grid, beta):
        params = GreyParams(1.2, beta)
        block = _block(grid)
        for n_paths in (1, block, block + 1, 3 * block + 5):
            batch = sample_ggbm_batch(params, grid, self.RNG, n_paths)
            assert batch.flags.c_contiguous
            expected = _column_major_batch(params.hurst, beta, grid, self.RNG, n_paths)
            assert batch.tobytes() == expected.tobytes(), n_paths

    @pytest.mark.parametrize("grid", [DyadicGrid(6), UniformGrid(999)], ids=repr)
    def test_bytes_do_not_depend_on_block_size(self, grid, monkeypatch):
        params = GreyParams(1.2, 0.6)
        n_paths = 2 * _block(grid) + 3
        batch = sample_ggbm_batch(params, grid, self.RNG, n_paths)
        for entries in (64, 1):
            monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", entries)
            assert sample_ggbm_batch(params, grid, self.RNG, n_paths).tobytes() == batch.tobytes(), entries

    @pytest.mark.parametrize("grid", [DyadicGrid(6), DyadicGrid(16), UniformGrid(999)], ids=repr)
    def test_batch_of_one_is_the_single_path(self, grid):
        params = GreyParams(1.2, 0.7)
        single = sample_ggbm(params, grid, self.RNG).values
        assert sample_ggbm_batch(params, grid, self.RNG, 1)[:, 0].tobytes() == single.tobytes()

    @pytest.mark.parametrize("n_paths, bound_mib", [(10_000, 10), (20_000, 16)])
    def test_batch_peak_holds_output_and_one_block(self, n_paths, bound_mib):
        # The whole-batch draw peaked at 25.1 and 50.0 MiB: normals, half
        # spectrum and output at once.  The output alone is 4.96 / 9.92 MiB.
        params = GreyParams(1.2, 0.7)
        sample_ggbm_batch(params, DyadicGrid(6), self.RNG, 10)
        peak = traced_peak(lambda: sample_ggbm_batch(params, DyadicGrid(6), self.RNG, n_paths))
        assert peak < bound_mib * 2 ** 20


class TestThreadScratch:
    """Each thread draws its blocks in one kept work array (sampling._SCRATCH)."""

    RNG = RngSpec(2 ** 64 + 7, 2 ** 32 - 5)
    PARAMS = GreyParams(1.2, 0.6)
    # Grow the kept array, draw blocks of many paths and a shorter path in
    # it, and draw the first path again.
    DRAWS = [(DyadicGrid(16), 1), (DyadicGrid(6), 2 * _block(DyadicGrid(6)) + 3),
             (DyadicGrid(14), 1), (DyadicGrid(16), 1)]

    def test_same_thread_draws_equal_the_reference(self):
        for grid, n_paths in self.DRAWS:
            expected = _column_major_batch(self.PARAMS.hurst, self.PARAMS.beta, grid, self.RNG, n_paths)
            if n_paths == 1:
                got = sample_ggbm(self.PARAMS, grid, self.RNG).values[:, None]
            else:
                got = sample_ggbm_batch(self.PARAMS, grid, self.RNG, n_paths)
            assert got.tobytes() == expected.tobytes(), (grid, n_paths)

    def test_two_threads_draw_the_serial_bytes(self):
        jobs = [(grid, n_paths, self.RNG.stream(10 ** 6 * k))
                for k, (grid, n_paths) in enumerate(self.DRAWS * 3 + [(UniformGrid(999), 40)] * 4)]

        def draw(job):
            grid, n_paths, rng = job
            return sample_ggbm_batch(self.PARAMS, grid, rng, n_paths).tobytes()

        serial = [draw(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(draw, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("level", [14, 16])
    def test_warm_single_path_allocates_its_output(self, level):
        # Before the kept work array: 0.63 and 2.50 MiB against outputs of
        # 0.125 and 0.5 MiB, as the normals and spectrum were new each path.
        grid = DyadicGrid(level)
        sample_ggbm(self.PARAMS, grid, self.RNG)
        paths = []
        peak = traced_peak(lambda: paths.append(sample_ggbm(self.PARAMS, grid, self.RNG.stream(1))))
        assert peak <= paths[0].values.nbytes + 0.1 * 2 ** 20

    def test_long_path_keeps_nothing(self):
        # Build the L18 spectrum plan, then keep an L16 path's work array.
        sample_ggbm(self.PARAMS, DyadicGrid(18), self.RNG)
        sample_ggbm(self.PARAMS, DyadicGrid(16), self.RNG)
        tracemalloc.start()
        try:
            path = sample_ggbm(self.PARAMS, DyadicGrid(18), self.RNG)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= path.values.nbytes + 2 ** 14
        assert getattr(sampling._SCRATCH, "work", np.empty(0)).size <= sampling._SCRATCH_KEEP

    def test_long_path_leaves_the_kept_array(self):
        kept = []

        def draw():
            for level in (16, 18):
                sample_ggbm(self.PARAMS, DyadicGrid(level), self.RNG)
                kept.append(sampling._SCRATCH.work)

        worker = threading.Thread(target=draw)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(kept) == 2
        assert kept[1] is kept[0] and kept[0].size <= sampling._SCRATCH_KEEP

    def test_thread_scratch_goes_with_the_thread(self):
        kept = []

        def draw():
            sample_ggbm(self.PARAMS, DyadicGrid(10), self.RNG)
            kept.append(weakref.ref(sampling._SCRATCH.work))

        worker = threading.Thread(target=draw)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(kept) == 1
        assert kept[0]() is None


class TestSamplerPlans:
    @pytest.mark.parametrize("level", [0, 1, 2, 8, 16])
    @pytest.mark.parametrize("beta", [1.0, 0.6])
    def test_half_spectrum_matches_full_fft(self, level, beta, rng):
        # Relative to the largest value of the batch: path values cross zero,
        # where an elementwise relative difference means nothing.
        params = GreyParams(1.2, beta)
        for n_paths in (1, 3):
            expected = _full_fft_batch(params.hurst, beta, level, rng, n_paths)
            batch = sample_ggbm_batch(params, DyadicGrid(level), rng, n_paths)
            assert np.abs(batch - expected).max() <= 1e-13 * np.abs(expected).max()
            if n_paths == 1:  # a batch of one is the single path
                single = sample_ggbm(params, DyadicGrid(level), rng)
                assert single.values.tobytes() == batch[:, 0].tobytes()

    @staticmethod
    def _count_spectrum_builds(monkeypatch):
        calls = []
        build = sampling._fgn_autocovariance

        def slow_build(hurst, k):
            # A build slower than a thread switch: without the plan lock,
            # every thread that misses the cache would start its own.
            calls.append((hurst, len(k)))
            time.sleep(0.02)
            return build(hurst, k)

        monkeypatch.setattr(sampling, "_fgn_autocovariance", slow_build)
        _circulant_sqrt_spectrum.cache_clear()
        return calls

    def test_sample_command_factorises_once(self, monkeypatch):
        calls = self._count_spectrum_builds(monkeypatch)
        cfg = {"grid": "uniform", "n": 999, "n_paths": 4, "alpha": 1.2, "beta": 0.7, "master_seed": 3}
        assert run_config("sample", cfg, threads=1)["results"]["n_paths"] == 4
        assert calls == [(0.6, 1000)]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_share_one_factorisation(self, threads, monkeypatch):
        calls = self._count_spectrum_builds(monkeypatch)
        cfg = {"grid": "uniform", "n": 999, "n_paths": 4, "alpha": 1.2, "beta": 0.7, "master_seed": 3}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run_config("sample", cfg, threads=threads)["results"]["n_paths"] == 4
        finally:
            sys.setswitchinterval(interval)
        assert calls == [(0.6, 1000)]

    def test_circulant_draw_memory(self, rng):
        # The 2m-row complex buffer of a full FFT alone is 2 MiB at level 16.
        params = GreyParams(1.2, 0.7)
        sample_ggbm(params, DyadicGrid(16), rng)
        assert traced_peak(lambda: sample_ggbm(params, DyadicGrid(16), rng)) < 10 * 8 * 2 ** 16


class TestGridSize:
    @pytest.mark.parametrize(
        "make, value",
        [
            (DyadicGrid, 2.5),
            (UniformGrid, 2.5),
            (UniformGrid, np.float64(4.0)),
            (DyadicGrid, 3.0),
            (UniformGrid, True),
            (DyadicGrid, False),
            (DyadicGrid, "3"),
            (DyadicGrid, -1),
            (UniformGrid, 0),
        ],
        ids=["dyadic-float", "uniform-float", "uniform-np-float", "dyadic-integral-float",
             "uniform-bool", "dyadic-bool", "dyadic-string", "dyadic-negative", "uniform-zero"],
    )
    def test_rejected(self, make, value):
        with pytest.raises(ParameterError, match="must be an integer"):
            make(value)

    def test_numpy_integer_stored_as_int(self, rng):
        grid = DyadicGrid(np.int64(3))
        assert type(grid.level) is int
        assert grid == DyadicGrid(3) and hash(grid) == hash(DyadicGrid(3))
        assert type(UniformGrid(np.uint16(5)).n) is int
        params = GreyParams(1.2, 0.7)
        assert sample_ggbm(params, grid, rng) == sample_ggbm(params, DyadicGrid(3), rng)


class TestSamplePathEquality:
    def test_equal_values_compare_equal(self):
        a = SamplePath(DyadicGrid(2), np.linspace(0, 1, 5))
        assert a == SamplePath(DyadicGrid(2), np.linspace(0, 1, 5))
        assert a != SamplePath(UniformGrid(4), np.linspace(0, 1, 5))
        assert a != "path"

    def test_pickled_copy_equal_one_value_changed_not(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(6), rng)
        p_variation_sum(path, 2.0)  # kept sums do not take part
        copy = pickle.loads(pickle.dumps(path))
        assert copy == path and not copy != path
        values = path.values.copy()
        values[3] += 1e-12
        assert SamplePath(path.grid, values, path.params, path.seed) != path
        assert SamplePath(path.grid, path.values, path.params, rng.stream(1)) != path

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(SamplePath(DyadicGrid(1), np.zeros(3)))
