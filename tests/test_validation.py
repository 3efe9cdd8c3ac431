import math

import numpy as np
import pytest

from greyvar.errors import InputError, ParameterError
from greyvar.params import GreyParams
from greyvar.special import mittag_leffler
from greyvar.validation import (
    CfCheckSpec,
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    even_moment_formula,
    gauss_legendre_integral,
    special_identity_report,
)



class TestCfCheckSpec:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            CfCheckSpec((1.0,), 0.5, 0.5, 20000)
        with pytest.raises(ParameterError):
            CfCheckSpec((1.0,), 0.0, 1.0, 500)

    def test_non_dyadic_time_rejected(self, rng):
        spec = CfCheckSpec((1.0,), 0.3, 1.0, 20000)
        with pytest.raises(InputError):
            check_increment_cf(GreyParams(1.0, 1.0), spec, rng)


class TestIncrementCf:
    def test_brownian_full_increment(self, rng):
        spec = CfCheckSpec((0.0, 1.0), 0.0, 1.0, 20000)
        report = check_increment_cf(GreyParams(1.0, 1.0), spec, rng)
        assert report.passed
        by_theta = {r.theta: r for r in report.rows}
        assert by_theta[0.0].empirical_re == 1.0
        assert by_theta[0.0].theoretical == 1.0
        assert by_theta[1.0].theoretical == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_grey_increment_against_mittag_leffler(self, rng):
        spec = CfCheckSpec((1.0, 2.0), 0.5, 1.0, 30000)
        params = GreyParams(1.2, 0.7)
        report = check_increment_cf(params, spec, rng.stream(10))
        assert report.passed
        row = report.rows[0]
        assert row.theoretical == pytest.approx(
            mittag_leffler(0.7, 0.5 * 0.5 ** 1.2), rel=1e-12
        )
        assert abs(row.z_im) <= 4.0

    def test_imaginary_part_vanishes(self, rng):
        spec = CfCheckSpec((0.7,), 0.25, 0.75, 20000)
        report = check_increment_cf(GreyParams(1.0, 0.6), spec, rng.stream(20))
        assert abs(report.rows[0].z_im) <= 4.0

    def test_cosine_estimator_is_even_in_theta(self, rng):
        spec = CfCheckSpec((1.3, -1.3), 0.0, 0.5, 20000)
        report = check_increment_cf(GreyParams(1.2, 0.7), spec, rng.stream(30))
        assert report.rows[0].empirical_re == report.rows[1].empirical_re


class TestEvenMoments:
    def test_brownian_second_moment(self, rng):
        report = check_even_moments(GreyParams(1.0, 1.0), 1.0, [2], 30000, rng)
        assert report.passed
        second = [r for r in report.rows if r.order == 2][0]
        assert second.theoretical == 1.0
        first = [r for r in report.rows if r.order == 1][0]
        assert first.theoretical == 0.0 and abs(first.z) <= 4.0

    def test_grey_second_moment_value(self, rng):
        report = check_even_moments(GreyParams(1.2, 0.5), 1.0, [2, 4], 30000, rng.stream(40))
        assert report.passed
        second = [r for r in report.rows if r.order == 2][0]
        assert second.theoretical == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_formula_matches_cf_curvature(self):
        # -d^2/dtheta^2 of the increment characteristic function at zero
        # equals the second moment (finite differences on the exact cf)
        for params in [GreyParams(1.0, 1.0), GreyParams(1.2, 0.6)]:
            t = 1.0
            h = 1e-3
            cf = lambda th: mittag_leffler(params.beta, 0.5 * th * th * t ** params.alpha)
            curvature = -(cf(h) - 2.0 * cf(0.0) + cf(-h)) / (h * h)
            assert curvature == pytest.approx(
                even_moment_formula(params, 2, t), abs=1e-6
            )

    def test_order_validation(self, rng):
        with pytest.raises(ParameterError):
            check_even_moments(GreyParams(1.0, 1.0), 1.0, [3], 20000, rng)
        with pytest.raises(ParameterError):
            check_even_moments(GreyParams(1.0, 1.0), 1.0, [6], 20000, rng)


class TestMixingDecay:
    def test_brownian_increments_uncorrelated(self, rng):
        report = check_mixing_decay(GreyParams(1.0, 1.0), [1, 2, 8, 64], 30000, rng)
        assert report.passed
        for row in report.rows:
            if row.lag >= 2:
                assert abs(row.z) <= 4.0
        assert report.rows[0].covariance > 0.1  # lag-1 variance baseline

    def test_persistent_fbm_correlation_decays(self, rng):
        report = check_mixing_decay(GreyParams(1.4, 1.0), [2, 4, 16, 64], 40000, rng.stream(50))
        rows = {r.lag: r for r in report.rows}
        assert rows[2].covariance > 0.0 and rows[2].z > 4.0
        assert rows[2].covariance > rows[16].covariance

    def test_grey_paths_decay_at_long_lag(self, rng):
        report = check_mixing_decay(GreyParams(1.2, 0.6), [1, 2, 64], 30000, rng.stream(60))
        assert report.passed

    def test_lag_validation(self, rng):
        with pytest.raises(InputError):
            check_mixing_decay(GreyParams(1.0, 1.0), [0], 20000, rng)
        with pytest.raises(InputError):
            check_mixing_decay(GreyParams(1.0, 1.0), [256], 20000, rng)

    def test_custom_clamp_probe(self, rng):
        probe = lambda x: np.clip(x, -1.0, 1.0)
        report = check_mixing_decay(
            GreyParams(1.0, 1.0), [1, 64], 20000, rng.stream(70), probe=probe
        )
        assert report.passed


class TestGaussLegendre:
    def test_one_call_on_all_nodes(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.stack([np.ones_like(x), x, x ** 3], axis=1)

        vals = gauss_legendre_integral(f, 0.0, 2.0, panels=4, order=16)
        assert calls == [(64,)]
        assert vals == pytest.approx([2.0, 2.0, 4.0], rel=1e-14)
        assert type(gauss_legendre_integral(np.cos, 0.0, 1.0)) is float
        assert gauss_legendre_integral(np.cos, 0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)


class TestSpecialIdentityReport:
    def test_all_rows_pass(self):
        report = special_identity_report()
        assert report["passed"]
        names = [r["name"] for r in report["rows"]]
        assert len(names) == 3
        for row in report["rows"]:
            assert row["error"] <= row["tol"]
