"""The package runs on numpy and the standard library alone.

The Gamma family comes from math.lgamma / math.gamma, the beta inversion
from a private bisection, and erfc from math.erfc.  These tests check that
no scipy module is loaded at import, compare the replacements with
independent oracles (mpmath, scipy), and pin the typed errors of the
special functions beyond the double range.
"""

import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from greyvar import inference
from greyvar.cli import EXIT_NUMERICAL, main
from greyvar.errors import NumericalError, ParameterError
from greyvar.params import GreyParams
from greyvar.special import (
    GAMMA_ARGMIN,
    gamma,
    mittag_leffler,
    mwright_moment,
    normal_abs_moment,
    theoretical_variation_limit,
)

EPS = np.finfo(float).eps


def test_import_loads_no_scipy():
    code = (
        "import sys, greyvar, greyvar.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestGammaOracles:
    # Arguments greyvar passes to lgamma: (0, 1) for the reciprocal Gamma
    # right of zero, and up to 512 for the 512-term series.
    LGAMMA_ARGS = np.concatenate(
        [
            np.linspace(1e-3, 1.0, 200),
            np.linspace(1.0, 3.0, 200),
            np.linspace(3.0, 512.0, 300),
            np.arange(1.0, 513.0),
            np.arange(0.5, 300.0),
        ]
    )

    def test_lgamma_against_mpmath(self):
        # exp(lgamma(x)) is what the package uses, so the error that matters
        # is absolute in lgamma; it is bounded by 8 eps times max(1, |lgamma|)
        # (measured worst: 5.6 eps).
        mpmath.mp.dps = 40
        for x in self.LGAMMA_ARGS.tolist():
            ref = float(mpmath.loggamma(x))
            assert abs(math.lgamma(x) - ref) <= 8 * EPS * max(1.0, abs(ref)), x

    def test_gamma_against_mpmath(self):
        # Relative bound 8 eps on (0, 171.6), the finite range of Gamma
        # (measured worst: 3.3 eps).
        mpmath.mp.dps = 40
        for x in np.concatenate([np.linspace(1e-3, 3.0, 300), np.linspace(3.0, 171.6, 300)]).tolist():
            ref = float(mpmath.gamma(x))
            assert abs(gamma(x) - ref) <= 8 * EPS * ref, x

    def test_moments_against_mpmath(self):
        mpmath.mp.dps = 40
        for beta, delta in [(0.3, 0.5), (0.5, 2.0), (0.9, 7.5), (1.0, 3.0), (0.5, -0.5)]:
            ref = mpmath.gamma(delta + 1) / mpmath.gamma(mpmath.mpf(beta) * delta + 1)
            assert mwright_moment(beta, delta) == pytest.approx(float(ref), rel=1e-13)
        for q in [0.5, 1.0, 2.0, 3.3, 40.0]:
            ref = 2 ** (mpmath.mpf(q) / 2) * mpmath.gamma((mpmath.mpf(q) + 1) / 2) / mpmath.sqrt(mpmath.pi)
            assert normal_abs_moment(q) == pytest.approx(float(ref), rel=1e-13)

    def test_half_order_mittag_leffler_at_one(self):
        mpmath.mp.dps = 40
        ref = float(mpmath.e * mpmath.erfc(1))
        assert mittag_leffler(0.5, 1.0) == pytest.approx(ref, rel=1e-14)


class TestGammaRoot:
    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.4, 1.9])
    def test_matches_brentq_in_both_regions(self, alpha):
        x_max = 1.0 / alpha + 1.0
        for lo, hi in [(1.0 + 1e-12, GAMMA_ARGMIN), (GAMMA_ARGMIN, x_max)]:
            for frac in (0.01, 0.2, 0.5, 0.8, 0.99):
                target = math.gamma(lo + frac * (hi - lo))
                ref = brentq(lambda v: math.gamma(v) - target, lo, hi, xtol=1e-13)
                assert abs(inference._gamma_root(target, lo, hi) - ref) <= 1e-12

    def test_target_outside_range_gives_nearer_end(self):
        lo, hi = GAMMA_ARGMIN, 3.0
        assert inference._gamma_root(0.5, lo, hi) == pytest.approx(lo, abs=1e-13)
        assert inference._gamma_root(5.0, lo, hi) == pytest.approx(hi, abs=1e-13)


class TestTypedErrors:
    @pytest.mark.parametrize(
        ("call", "name"),
        [
            (lambda: gamma(200.0), "gamma(200.0)"),
            (lambda: gamma(math.inf), "gamma(inf)"),
            (lambda: mwright_moment(0.5, 400), "mwright_moment(0.5, 400)"),
            (lambda: mwright_moment(beta=0.5, delta=400), "mwright_moment(beta=0.5, delta=400)"),
            (lambda: normal_abs_moment(500.0), "normal_abs_moment(500.0)"),
            (
                lambda: theoretical_variation_limit(GreyParams(2.0 / 700, 0.5)),
                f"theoretical_variation_limit({GreyParams(2.0 / 700, 0.5)!r})",
            ),
        ],
    )
    def test_overflow_names_the_call(self, call, name):
        with pytest.raises(NumericalError) as info:
            call()
        assert str(info.value).startswith(name)

    def test_largest_finite_gamma_still_evaluates(self):
        assert gamma(171.0) == math.gamma(171.0)
        assert math.isfinite(theoretical_variation_limit(GreyParams(2.0 / 200.0, 0.5)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma(math.nan),
            lambda: mwright_moment(0.5, math.nan),
            lambda: mwright_moment(math.nan, 1.0),
            lambda: normal_abs_moment(math.nan),
            lambda: theoretical_variation_limit(GreyParams(2.0 / math.nan, 0.5)),
        ],
    )
    def test_nan_is_parameter_error(self, call):
        with pytest.raises(ParameterError):
            call()

    def test_tiny_alpha_variation_exits_numerical(self, tmp_path, capsys):
        # alpha = 0.004 is admissible, and its critical exponent 500 puts
        # E|B(1)|^500 beyond the double range.
        path = tmp_path / "c.json"
        cfg = {"alpha": 0.004, "beta": 0.5, "level": 8, "n_paths": 2, "p_values": [2.0],
               "master_seed": 1, "out": str(tmp_path / "v.json")}
        path.write_text(json.dumps(cfg))
        assert main(["variation", "--config", str(path)]) == EXIT_NUMERICAL
        assert "theoretical_variation_limit(GreyParams(alpha=0.004, beta=0.5)) overflows" in capsys.readouterr().err
