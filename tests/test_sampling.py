import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from greyvar.errors import CapacityError, InputError, NumericalError, ParameterError
from greyvar.params import GreyParams
from greyvar.sampling import (
    DyadicGrid,
    RngSpec,
    SamplePath,
    UniformGrid,
    _circulant_sqrt_spectrum,
    fbm_covariance,
    sample_fbm_cholesky,
    sample_fbm_cholesky_batch,
    sample_fbm_circulant,
    sample_fbm_circulant_batch,
    sample_ggbm,
    sample_ggbm_batch,
    sample_mwright,
    sample_one_sided_stable,
)
from greyvar.special import mwright_moment



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
        lambda: sample_fbm_cholesky(1.0, DyadicGrid(13), rng),
        lambda: sample_fbm_cholesky_batch(1.0, UniformGrid(5000), rng, 2),
        lambda: sample_fbm_circulant(0.0, 25, rng),
        lambda: sample_fbm_circulant_batch(float("nan"), 25, rng, 2),
    ):
        with pytest.raises(ParameterError, match="hurst must lie in"):
            call()


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
    def test_determinism(self, rng):
        a = sample_fbm_cholesky(0.7, DyadicGrid(6), rng)
        b = sample_fbm_cholesky(0.7, DyadicGrid(6), rng)
        assert np.array_equal(a.values, b.values)
        assert a.values[0] == 0.0
        assert a.params == GreyParams.fbm(0.7)

    def test_capacity_guard(self, rng):
        with pytest.raises(CapacityError):
            sample_fbm_cholesky(0.5, DyadicGrid(13), rng)
        with pytest.raises(CapacityError):
            sample_fbm_cholesky(0.5, UniformGrid(5000), rng)

    def test_brownian_increment_variance(self, rng):
        batch = sample_fbm_cholesky_batch(0.5, DyadicGrid(10), rng, 10_000)
        inc = np.diff(batch, axis=0)
        var = inc.var()
        se = inc.var() * math.sqrt(2.0 / inc.size)
        assert abs(var - 2.0 ** -10) <= 4.0 * se

    def test_covariance_h07(self, rng):
        batch = sample_fbm_cholesky_batch(0.7, DyadicGrid(4), rng.stream(50), 30_000)
        prod = batch[8] * batch[16]
        se = prod.std() / math.sqrt(len(prod))
        assert abs(prod.mean() - fbm_covariance(0.7, 0.5, 1.0)) <= 4.0 * se


class TestCirculant:
    def test_determinism(self, rng):
        a = sample_fbm_circulant(0.3, 8, rng)
        b = sample_fbm_circulant(0.3, 8, rng)
        assert np.array_equal(a.values, b.values)

    def test_level_guard(self, rng):
        with pytest.raises(CapacityError):
            sample_fbm_circulant(0.5, 25, rng)
        with pytest.raises(CapacityError):
            sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(25), rng)

    def test_cached_spectrum_is_shared_and_read_only(self):
        root = _circulant_sqrt_spectrum(0.7, 16)
        assert root is _circulant_sqrt_spectrum(0.7, 16)
        with pytest.raises(ValueError):
            root[0] = 0.0

    def test_increment_variance_level12(self, rng):
        batch = sample_fbm_circulant_batch(0.5, 12, rng.stream(100), 2_000)
        inc = np.diff(batch, axis=0)
        var = inc.var()
        se = var * math.sqrt(2.0 / inc.size)
        assert abs(var - 2.0 ** -12) <= 4.0 * se

    def test_lag_one_autocorrelation_h06(self, rng):
        batch = sample_fbm_circulant_batch(0.6, 10, rng.stream(200), 20_000)
        inc = np.diff(batch, axis=0)
        rho = float((inc[:-1] * inc[1:]).mean() / inc.var())
        # (2^(2H) - 2)/2 at H = 0.6
        assert rho == pytest.approx(0.1486983549970350, abs=0.004)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_agrees_with_cholesky(self, hurst, rng):
        n = 10_000
        chol = sample_fbm_cholesky_batch(hurst, DyadicGrid(10), rng.stream(300), n)
        circ = sample_fbm_circulant_batch(hurst, 10, rng.stream(300 + n), n)
        stat = ks_2samp(np.diff(chol, axis=0)[0], np.diff(circ, axis=0)[0])
        assert stat.pvalue > 0.001


class TestStableSampler:
    def test_positive_and_deterministic(self, rng):
        draws = sample_one_sided_stable(0.5, rng, 1000)
        again = sample_one_sided_stable(0.5, rng, 1000)
        assert np.array_equal(draws, again)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_laplace_transform(self, beta, rng):
        draws = sample_one_sided_stable(beta, rng.stream(int(beta * 10)), 10 ** 6)
        for s in [0.5, 1.0, 2.0]:
            x = np.exp(-s * draws)
            se = x.std() / 1000.0
            assert abs(x.mean() - math.exp(-(s ** beta))) <= 4.0 * se

    def test_errors(self, rng):
        with pytest.raises(ParameterError):
            sample_one_sided_stable(1.0, rng)

    def test_draws_outside_double_range_raise(self, rng):
        # S = Y^(-1/beta) over- and underflows for beta near 0.
        with pytest.raises(NumericalError, match="beta=0.001"):
            sample_one_sided_stable(0.001, rng, 100_000)
        draws = sample_one_sided_stable(0.05, rng, 100_000)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)


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
    def test_beta_one_reduces_to_fbm_exactly(self, rng):
        g = sample_ggbm(GreyParams(1.4, 1.0), DyadicGrid(8), rng)
        f = sample_fbm_circulant(0.7, 8, rng)
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize(
        "grid, beta, atol",
        [
            (DyadicGrid(5), 0.7, 0.0),
            (DyadicGrid(5), 1.0, 0.0),
            (UniformGrid(256), 0.7, 0.0),
            (UniformGrid(256), 1.0, 0.0),
            # Cholesky grid: the batch product (gemm) and the one-column
            # product (gemv) round differently.
            (UniformGrid(100), 0.7, 1e-13),
        ],
        ids=["dyadic5-0.7", "dyadic5-1.0", "uniform256-0.7", "uniform256-1.0", "uniform100-0.7"],
    )
    def test_batch_equals_singles(self, grid, beta, atol, rng):
        params = GreyParams(1.2, beta)
        batch = sample_ggbm_batch(params, grid, rng, 6)
        for i in range(6):
            single = sample_ggbm(params, grid, rng.stream(i))
            np.testing.assert_allclose(batch[:, i], single.values, rtol=0.0, atol=atol)

    def test_uniform_power_of_two_grid(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(256), rng)
        assert isinstance(path.grid, UniformGrid)
        assert len(path.values) == 257

    def test_uniform_odd_grid_uses_cholesky(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(100), rng)
        assert len(path.values) == 101
        with pytest.raises(CapacityError):
            sample_ggbm(GreyParams(1.2, 0.7), UniformGrid(5001), rng)

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
