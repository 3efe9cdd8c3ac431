import math

import numpy as np
import pytest
from scipy.special import erfc

from greyvar.errors import (
    AccuracyError,
    DegenerateDistributionError,
    InputError,
    ParameterError,
)
from greyvar.params import GreyParams
from greyvar.special import (
    ggbm_abs_moment,
    mittag_leffler,
    mwright_moment,
    mwright_pdf,
    normal_abs_moment,
    theoretical_variation_limit,
)

from conftest import gl_quad, mwright_cutoff

# Frozen reference values, computed with an adaptive-precision series
# (mpmath, 50+ digits, cancellation-aware) before the implementation
# existed.
ML_REFERENCE = {
    (0.3, 5.0): 0.13708086902027064,
    (0.5, 5.0): 0.11070463773306863,
    (0.7, 5.0): 0.07756935776476981,
    (0.3, 1.0): 0.45659440832969067,
    (0.7, 1.0): 0.39961197811559939,
    (0.9, 10.0): 0.012820606051102100,
    (0.1, 2.0): 0.32001533595972740,
}

# Same protocol (mpmath rgamma series, 120 digits) for the density.
MWRIGHT_REFERENCE = {
    (0.3, 2.0): 0.16840030622678312,
    (0.3, 0.5): 0.56100164873166428,
    (0.7, 1.0): 0.55342144306656070,
    (0.7, 2.5): 0.067068727375303539,
    (0.15, 1.0): 0.37332871650292906,
}


class TestMittagLeffler:
    def test_beta_one_is_exponential(self):
        for s in np.linspace(0.0, 50.0, 100):
            assert abs(mittag_leffler(1.0, float(s)) - math.exp(-s)) <= 1e-12

    def test_value_at_zero(self):
        for beta in [0.1, 0.3, 0.5, 0.9, 1.0]:
            assert mittag_leffler(beta, 0.0) == 1.0

    def test_half_closed_form_at_one(self):
        # E_1/2(-1) = e * erfc(1)
        assert abs(mittag_leffler(0.5, 1.0) - 0.4275835761558070) <= 1e-10

    def test_half_closed_form_grid(self):
        # E_1/2(-s) = exp(s^2) erfc(s), an independent closed form that
        # exercises both the series and the integral evaluation paths
        for s in np.linspace(0.05, 6.0, 40):
            ref = math.exp(s * s) * float(erfc(s))
            assert abs(mittag_leffler(0.5, float(s)) - ref) <= 1e-11

    @pytest.mark.parametrize(("beta", "s"), sorted(ML_REFERENCE))
    def test_frozen_values(self, beta, s):
        assert mittag_leffler(beta, s) == pytest.approx(ML_REFERENCE[(beta, s)], abs=1e-10)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_monotone_and_bounded(self, beta):
        values = [mittag_leffler(beta, float(s)) for s in np.linspace(0.0, 30.0, 200)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b <= a + 1e-13 for a, b in zip(values, values[1:]))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ParameterError):
            mittag_leffler(1.5, 1.0)
        with pytest.raises(InputError):
            mittag_leffler(0.5, -1.0)
        with pytest.raises(InputError):
            mittag_leffler(0.5, math.nan)


class TestMWrightPdf:
    def test_half_is_scaled_gaussian(self):
        # M_1/2(tau) = exp(-tau^2/4)/sqrt(pi); the cancellation noise floor
        # (~1e-12 times the largest series term) grows like exp(tau^2/4),
        # so strict exactness holds on the range where the density still
        # dominates it
        for tau in np.linspace(0.0, 6.5, 60):
            ref = math.exp(-tau * tau / 4.0) / math.sqrt(math.pi)
            assert abs(mwright_pdf(0.5, float(tau)) - ref) <= 1e-10

    def test_half_far_tail_is_floored_not_garbage(self):
        # beyond the evaluable range the density returns 0.0 rather than
        # cancellation noise
        for tau in [9.0, 10.0, 12.0]:
            ref = math.exp(-tau * tau / 4.0) / math.sqrt(math.pi)
            got = mwright_pdf(0.5, tau)
            assert got == 0.0 or abs(got - ref) <= 1e-9

    def test_value_at_zero(self):
        assert mwright_pdf(0.5, 0.0) == pytest.approx(0.5641895835477563, abs=1e-14)
        assert mwright_pdf(0.3, 0.0) == pytest.approx(1.0 / math.gamma(0.7), abs=1e-14)

    @pytest.mark.parametrize(("beta", "tau"), sorted(MWRIGHT_REFERENCE))
    def test_frozen_values(self, beta, tau):
        assert mwright_pdf(beta, tau) == pytest.approx(MWRIGHT_REFERENCE[(beta, tau)], abs=1e-10)

    @pytest.mark.parametrize("beta", [0.15, 0.3, 0.5, 0.7])
    def test_nonnegative_over_support(self, beta):
        for tau in np.linspace(0.0, mwright_cutoff(beta), 300):
            assert mwright_pdf(beta, float(tau)) >= 0.0

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_normalization(self, beta):
        total = gl_quad(lambda t: mwright_pdf(beta, t), 0.0, mwright_cutoff(beta))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_and_range_errors(self):
        with pytest.raises(DegenerateDistributionError):
            mwright_pdf(1.0, 0.5)
        with pytest.raises(ParameterError):
            mwright_pdf(1.2, 0.5)
        with pytest.raises(InputError):
            mwright_pdf(0.5, -0.1)

    def test_nonconvergent_series_raises(self):
        # far beyond the double-precision tau range for this beta
        with pytest.raises(AccuracyError):
            mwright_pdf(0.5, 80.0)
        with pytest.raises(AccuracyError):
            mwright_pdf(0.5, np.array([0.0, 1.0, 80.0]))

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_array_matches_references(self, beta):
        ref = {t: v for (b, t), v in MWRIGHT_REFERENCE.items() if b == beta}
        if beta == 0.5:
            ref = {t: math.exp(-t * t / 4.0) / math.sqrt(math.pi) for t in np.linspace(0.0, 6.5, 27)}
        taus = np.array(sorted(ref))
        grid = np.concatenate([taus, np.linspace(0.0, mwright_cutoff(beta), 200)])
        got = mwright_pdf(beta, grid)
        assert got.shape == grid.shape
        assert np.all(np.abs(got[: len(taus)] - [ref[t] for t in taus]) <= 1e-10)
        # the array and the scalar call evaluate the same series per tau
        single = np.array([mwright_pdf(beta, float(t)) for t in grid])
        assert np.all(np.abs(got - single) <= 1e-14)

    def test_output_types(self):
        for tau in [0.0, 1.0, np.float64(2.0), 3]:
            assert type(mwright_pdf(0.5, tau)) is float
        assert mwright_pdf(0.5, np.ones((2, 3))).shape == (2, 3)

    def test_array_input_errors(self):
        with pytest.raises(InputError):
            mwright_pdf(0.5, np.array([0.5, -0.1]))
        with pytest.raises(InputError):
            mwright_pdf(0.5, np.array([0.5, math.nan]))


class TestLaplaceAndMomentIdentities:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("s", [0.1, 1.0, 5.0])
    def test_laplace_transform_identity(self, beta, s):
        cutoff = mwright_cutoff(beta)
        val = gl_quad(lambda t: math.exp(-s * t) * mwright_pdf(beta, t), 0.0, cutoff)
        assert val == pytest.approx(mittag_leffler(beta, s), abs=1e-6)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_moment_identity(self, beta, delta):
        cutoff = mwright_cutoff(beta)
        val = gl_quad(lambda t: t ** delta * mwright_pdf(beta, t), 0.0, cutoff)
        # the tau^2-weighted integral reaches into the cancellation-limited
        # far tail of the double-precision density, which caps the
        # achievable agreement near 1e-5 there
        tol = 1e-6 if delta < 2.0 else 2e-5
        assert val == pytest.approx(mwright_moment(beta, delta), abs=tol)


class TestMoments:
    def test_mwright_moment_values(self):
        assert mwright_moment(1.0, 3.0) == pytest.approx(1.0, abs=1e-15)
        assert mwright_moment(0.42, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert mwright_moment(0.5, 1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    def test_mwright_moment_errors(self):
        with pytest.raises(ParameterError):
            mwright_moment(0.5, -1.0)
        with pytest.raises(ParameterError):
            mwright_moment(1.5, 1.0)

    def test_normal_abs_moment_integers(self):
        assert normal_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
        assert normal_abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
        assert normal_abs_moment(1.0) == pytest.approx(0.7978845608028654, rel=1e-14)

    def test_normal_abs_moment_against_monte_carlo(self):
        gen = np.random.default_rng(1234)
        z = np.abs(gen.standard_normal(10 ** 6))
        for q in [1.0, 5.0 / 3.0]:
            x = z ** q
            se = x.std() / 1000.0
            assert abs(x.mean() - normal_abs_moment(q)) <= 4.0 * se

    def test_normal_abs_moment_error(self):
        with pytest.raises(ParameterError):
            normal_abs_moment(-1.0)

    def test_ggbm_abs_moment(self):
        assert ggbm_abs_moment(1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert ggbm_abs_moment(0.5, 2.0) == pytest.approx(1.1283791670955126, rel=1e-13)
        for beta, p in [(0.3, 1.5), (0.8, 2.7)]:
            assert ggbm_abs_moment(beta, p) == pytest.approx(
                mwright_moment(beta, p / 2.0) * normal_abs_moment(p), rel=1e-14
            )
        with pytest.raises(ParameterError):
            ggbm_abs_moment(0.5, 0.0)


class TestVariationLimit:
    def test_brownian_case(self):
        assert theoretical_variation_limit(GreyParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_reduces_to_normal_moment_at_beta_one(self):
        for alpha in [0.6, 1.0, 1.2, 1.8]:
            assert theoretical_variation_limit(GreyParams(alpha, 1.0)) == normal_abs_moment(
                2.0 / alpha
            )

    def test_known_values(self):
        assert theoretical_variation_limit(GreyParams(1.0, 0.5)) == pytest.approx(
            1.1283791670955126, rel=1e-13
        )
        # E|Z|^(5/3), frozen from quadrature and verified by Monte Carlo
        assert theoretical_variation_limit(GreyParams(1.2, 1.0)) == pytest.approx(
            0.8976869008760882, rel=1e-13
        )
        assert theoretical_variation_limit(GreyParams(1.2, 0.7)) == pytest.approx(
            0.9469215060262641, rel=1e-13
        )

    def test_critical_limit_against_monte_carlo(self):
        gen = np.random.default_rng(777)
        z = np.abs(gen.standard_normal(10 ** 6)) ** (5.0 / 3.0)
        se = z.std() / 1000.0
        assert abs(z.mean() - theoretical_variation_limit(GreyParams(1.2, 1.0))) <= 4.0 * se

