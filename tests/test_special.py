import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from greyvar.errors import (
    DegenerateDistributionError,
    InputError,
    ParameterError,
)
from greyvar.params import GreyParams
from greyvar.special import (
    gamma,
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

    @pytest.mark.parametrize(
        ("beta", "s", "match"),
        [(0.5, True, "^s "), (0.5, None, "^s "), (0.5, "1", "^s "), ("a", 1.0, "^beta "), (True, 1.0, "^beta ")],
    )
    def test_non_real_argument_is_named(self, beta, s, match):
        with pytest.raises(ParameterError, match=match + "must be a real number"):
            mittag_leffler(beta, s)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ParameterError):
            mittag_leffler(1.5, 1.0)
        with pytest.raises(InputError):
            mittag_leffler(0.5, -1.0)
        with pytest.raises(InputError):
            mittag_leffler(0.5, math.nan)



def ml_reference(beta, s):
    """E_beta(-s) in mpmath, independent of the spectral integral.

    The power series sum_k (-s)^k / Gamma(beta k + 1) at 120 digits where
    its largest term stays below 1e60; otherwise the asymptotic series
    sum_{k>=1} (-1)^(k+1) s^-k / Gamma(1 - beta k), summed until its
    envelope s^-k Gamma(beta k) falls 40 digits below the sum.  The terms
    of both turn near beta k = s^(1/beta).
    """
    log_s = math.log(s)
    k_turn = int(math.exp(min(log_s / beta - math.log(beta), 30.0))) + 2
    peak = max(k * log_s - math.lgamma(beta * k + 1) for k in range(min(k_turn, 10**5) + 1))
    if peak < 60 * math.log(10):
        with mpmath.workdps(120):
            b, x = mpmath.mpf(beta), -mpmath.mpf(s)
            total, term, k = mpmath.mpf(0), mpmath.mpf(1), 0
            while k <= k_turn or abs(term) >= mpmath.mpf(10) ** -45:
                term = x**k * mpmath.rgamma(b * k + 1)
                total += term
                k += 1
            return float(total)
    with mpmath.workdps(60):
        b, x = mpmath.mpf(beta), mpmath.mpf(s)
        total, k = mpmath.mpf(0), 1
        while True:
            total += (-1) ** (k + 1) * x**-k * mpmath.rgamma(1 - b * k)
            envelope = x**-k * (mpmath.gamma(b * k) if b * k > 1 else 1)
            if envelope < mpmath.mpf(10) ** -40 * abs(total):
                return float(total)
            assert k < k_turn, "asymptotic series turned before converging"
            k += 1


ML_ORACLE_BETAS = (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999)
ML_ORACLE_S = (
    1e-300, 1e-100, 1e-30, 1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0,
    2.0, 4.0, 6.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e6, 1e10, 1e15,
)
# ml_reference values whose series needs 10^4 to 10^5 terms (seconds each).
ML_ORACLE_FROZEN = {
    (0.001, 1.0): 0.4998556960785243,
    (0.01, 1.0): 0.4985569555884718,
}


class TestMittagLefflerOracle:
    """mittag_leffler against mpmath within 1e-13 relative from s = 1e-300
    to 1e15.  The grid holds (0.8, 4), (0.99, 6), (0.995, 6) and (0.999, 6),
    where a double-precision power series loses 1e-12 to 5e-11 to
    cancellation, and s <= 1e-12, where the spectral panels must reach the
    kernel's unit scale far below the cutoff 60^beta / s."""

    @pytest.mark.parametrize("beta", ML_ORACLE_BETAS)
    def test_against_mpmath(self, beta):
        for s in ML_ORACLE_S:
            ref = ML_ORACLE_FROZEN.get((beta, s)) or ml_reference(beta, s)
            value = mittag_leffler(beta, s)
            assert abs(value - ref) <= 1e-13 * ref, (s, value, ref)

    @pytest.mark.parametrize("beta", [0.001, 0.3, 0.5, 0.9, 0.999])
    def test_extreme_arguments(self, beta):
        # Below 2^-56, s / Gamma(1 + beta) is under half an ulp below 1.
        assert mittag_leffler(beta, 2.0**-56) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e-300, 1e-16, 1e300):
                assert 0.0 <= mittag_leffler(beta, s) <= 1.0


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

    @pytest.mark.parametrize("beta", [None, "0.5", True], ids=repr)
    def test_non_real_beta_is_named(self, beta):
        with pytest.raises(ParameterError, match="^beta must be a real number"):
            mwright_pdf(beta, 1.0)

    @pytest.mark.parametrize(
        "tau", ["a", "1.0", b"1", 1j, {}, None, True, np.True_, [0.5, "x"]], ids=repr
    )
    def test_non_real_tau_is_named(self, tau):
        with pytest.raises(ParameterError, match="^tau must be a real number"):
            mwright_pdf(0.5, tau)

    def test_degenerate_and_range_errors(self):
        with pytest.raises(DegenerateDistributionError):
            mwright_pdf(1.0, 0.5)
        with pytest.raises(ParameterError):
            mwright_pdf(1.2, 0.5)
        with pytest.raises(InputError):
            mwright_pdf(0.5, -0.1)

    def test_far_tail_underflows_to_zero(self):
        # M_1/2(80) = exp(-1600) / sqrt(pi), about 1e-695: below every double
        assert mwright_pdf(0.5, 80.0) == 0.0
        got = mwright_pdf(0.5, np.array([0.0, 1.0, 80.0]))
        ref = np.array([1.0, math.exp(-0.25), 0.0]) / math.sqrt(math.pi)
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)
        assert got[2] == 0.0

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


def mwright_series(beta, tau, digits=30):
    """M_beta(tau) = sum_n (-tau)^n / (n! Gamma(1 - beta(n+1))) in mpmath.

    Terms are added past the largest one until their envelope
    tau^n Gamma(beta(n+1)) / n! falls `digits` digits below the sum.  The
    working precision, at least 120 digits, covers the largest term plus
    `digits` digits of the result, and is raised until the result clears
    the cancellation noise.
    """
    log_tau = math.log10(tau)
    peak = max(
        n * log_tau - (math.lgamma(n + 1) - math.lgamma(beta * (n + 1))) / math.log(10)
        for n in range(1, 4 * int(tau ** (1.0 / (1.0 - beta))) + 10)
    )
    # Terms rise while tau (beta n)^beta / n > 1.
    n_peak = (tau * beta ** beta) ** (1.0 / (1.0 - beta)) + 2
    lost = 0
    while True:
        dps = max(120, int(peak) + lost + digits + 10)
        with mpmath.workdps(dps):
            b, t = mpmath.mpf(beta), mpmath.mpf(tau)
            total, term, n = mpmath.mpf(0), mpmath.mpf(1), 0
            tol = mpmath.mpf(10) ** -digits
            while True:
                total += term * mpmath.rgamma(1 - b * (n + 1))
                envelope = abs(term) * mpmath.gamma(b * (n + 1))
                if n > n_peak and envelope < tol * abs(total):
                    break
                n += 1
                term *= -t / n
            if total > 0 and mpmath.log10(total) > peak - dps + digits:
                return float(total)
            lost = int(peak - float(mpmath.log10(abs(total)))) + 1 if total != 0 else lost + 100


EPS = np.finfo(float).eps

# mwright_series values that take up to 700 digits and 40,000 terms
# (minutes each): the far tails down to the double underflow.
MWRIGHT_SERIES_FROZEN = {
    (0.05, 150.0): 2.4154655604286794e-70,
    (0.05, 520.0): 1.8507243939193817e-256,
    (0.05, 615.0): 1.0823861403298276e-305,
    (0.15, 120.0): 2.2102213970758652e-75,
    (0.15, 340.0): 5.4165194933551443e-253,
    (0.15, 400.0): 5.984730297776194e-306,
    (0.3, 60.0): 2.33195218883516e-64,
    (0.3, 150.0): 1.3559522369137485e-234,
    (0.3, 180.0): 5.809745600610105e-304,
    (0.7, 8.0): 2.0695092061904407e-58,
    (0.7, 11.0): 4.563598341749201e-168,
    (0.7, 13.0): 4.720881122051791e-293,
    (0.7, 13.17): 5.219500714478822e-306,
    (0.7, 13.175): 2.140879046183559e-306,
    (0.9, 2.0): 7.819366916221752e-17,
    (0.9, 2.4): 5.750482130723383e-106,
    (0.9, 2.65): 1.7837740239298728e-286,
    (0.95, 1.5): 2.4460182261475144e-26,
    (0.95, 1.6): 6.716615823133513e-98,
    (0.95, 1.69): 1.3781404385342466e-294,
}

# Taus both sides of the Taylor floor 1e-2 and through the bulk, then tail
# points per beta where the series is quick.  With the frozen ones they hold
# (0.5, 10), (0.5, 18.5), (0.7, 6), (0.9, 1.75) and (0.95, 1.5), where a
# double-precision sum of the alternating series loses every digit.
ORACLE_TAUS = (1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.0099, 0.0101, 0.05, 0.3, 1.0)
ORACLE_TAIL = {
    1e-6: (0.02, 3.0, 40.0),
    1e-3: (0.02, 3.0, 40.0),
    0.05: (10.0, 50.0),
    0.15: (10.0, 50.0),
    0.3: (5.0, 20.0),
    0.5: (10.0, 18.5, 30.0, 52.0),
    0.7: (1.75, 6.0),
    0.9: (1.5, 1.75),
    0.95: (1.3,),
}


def mwright_reference(beta, tau):
    if beta == 0.5:
        return float(mpmath.exp(-mpmath.mpf(tau) ** 2 / 4) / mpmath.sqrt(mpmath.pi))
    if (beta, tau) in MWRIGHT_SERIES_FROZEN:
        return MWRIGHT_SERIES_FROZEN[(beta, tau)]
    return mwright_series(beta, tau)


def condition_number(beta, tau):
    """|d log M_beta / d log tau| in the tail, c x A(0+) with x = tau^c and
    A(0+) = (1-beta) beta^(beta/(1-beta)), c = 1/(1-beta): a relative error of
    eps in anything that scales tau, or x A, moves M_beta by this many eps."""
    c = 1.0 / (1.0 - beta)
    return c * tau ** c * (1.0 - beta) * beta ** (beta * c)


class TestMWrightOracle:
    """mwright_pdf against its power series summed in mpmath, down to the
    double underflow: within 1e-12 relative for tau >= 1e-3 and 1e-11 below,
    or within the condition number times the machine epsilon where that is
    larger (the last decades before the underflow for beta >= 0.7, where
    A(u) = a(u)^c carries the rounding of its sines c-fold)."""

    @pytest.mark.parametrize("beta", sorted(ORACLE_TAIL))
    def test_against_series(self, beta):
        taus = ORACLE_TAUS + ORACLE_TAIL[beta]
        taus += tuple(t for b, t in MWRIGHT_SERIES_FROZEN if b == beta)
        got = mwright_pdf(beta, np.array(taus))
        for tau, value in zip(taus, got):
            ref = mwright_reference(beta, tau)
            tol = max(1e-12 if tau >= 1e-3 else 1e-11, condition_number(beta, tau) * EPS)
            assert abs(value - ref) <= tol * ref, (tau, value, ref)
            assert mwright_pdf(beta, tau) == pytest.approx(value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.9, 0.99])
    def test_array_equals_scalar(self, beta):
        cutoff = mwright_cutoff(beta, 745.0)
        taus = np.concatenate([[0.0], np.geomspace(1e-6, 1e-2, 9), np.linspace(1e-2, cutoff, 400)])
        np.random.default_rng(3).shuffle(taus)
        got = mwright_pdf(beta, taus)
        single = np.array([mwright_pdf(beta, float(t)) for t in taus])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - single) <= 1e-14 * single)

    def test_beta_above_node_cap_is_rejected(self):
        with pytest.raises(ParameterError, match="0.999"):
            mwright_pdf(0.9995, 1.0)
        assert math.isfinite(mwright_pdf(0.999, 1.0))

    def test_beta_near_one(self):
        # M_0.99 rises from 1/Gamma(0.01) ~ 0.01 at 0 to a peak near 1 and
        # underflows beyond tau ~ 1.13.
        cutoff = mwright_cutoff(0.99, 745.0)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        edges = np.linspace(0.0, cutoff, 241)
        half = 0.5 * np.diff(edges)[:, None]
        taus = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
        w = (half * weights).ravel()
        density = mwright_pdf(0.99, taus)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        assert mwright_pdf(0.99, cutoff * 1.01) == 0.0
        assert w @ density == pytest.approx(1.0, abs=1e-10)
        assert w @ (taus * density) == pytest.approx(mwright_moment(0.99, 1.0), abs=1e-10)


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

    @pytest.mark.parametrize(
        ("call", "name"),
        [
            (lambda v: mwright_moment(v, 1.0), "beta"),
            (lambda v: mwright_moment(0.5, v), "delta"),
            (lambda v: normal_abs_moment(v), "q"),
            (lambda v: theoretical_variation_limit(GreyParams(1.0, v)), "beta"),
            (lambda v: theoretical_variation_limit(GreyParams(v, 0.5)), "alpha"),
            (lambda v: gamma(v), "x"),
        ],
    )
    @pytest.mark.parametrize("value", [True, "1", None], ids=repr)
    def test_non_real_argument_is_named(self, call, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be a real number"):
            call(value)

    def test_ggbm_abs_moment(self):
        # theoretical_variation_limit is the ggBm absolute moment E|B(1)|^p at p = 2/alpha.
        assert theoretical_variation_limit(GreyParams(2.0 / 2.0, 1.0)) == pytest.approx(1.0, rel=1e-14)
        assert theoretical_variation_limit(GreyParams(2.0 / 2.0, 0.5)) == pytest.approx(
            1.1283791670955126, rel=1e-13
        )
        for beta, p in [(0.3, 1.5), (0.8, 2.7)]:
            assert theoretical_variation_limit(GreyParams(2.0 / p, beta)) == pytest.approx(
                mwright_moment(beta, p / 2.0) * normal_abs_moment(p), rel=1e-14
            )

    @pytest.mark.parametrize("params", [(1.0, 0.5), None, 1.0], ids=repr)
    def test_variation_limit_needs_grey_params(self, params):
        with pytest.raises(ParameterError, match="^params must be a GreyParams"):
            theoretical_variation_limit(params)


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

