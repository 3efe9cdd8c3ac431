import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greyvar.errors import InputError, ParameterError
from greyvar.params import GreyParams
from greyvar.sampling import DyadicGrid, RngSpec, SamplePath, UniformGrid, sample_ggbm
from greyvar.special import theoretical_variation_limit
from greyvar.variation import (
    Regime,
    TrichotomyLabel,
    hoelder_dominance_bound,
    p_variation_sum,
    variation_sequence,
    variation_trichotomy,
)

from conftest import MASTER_SEED


def linear_path(level):
    return SamplePath(DyadicGrid(level), np.linspace(0.0, 1.0, 2 ** level + 1))


def constant_path(level):
    return SamplePath(DyadicGrid(level), np.zeros(2 ** level + 1))


class TestPVariationSum:
    def test_linear_path(self):
        path = linear_path(6)
        assert p_variation_sum(path, 1.0).value == pytest.approx(1.0, rel=1e-12)
        assert p_variation_sum(path, 2.0).value == pytest.approx(2.0 ** -6, rel=1e-12)

    def test_constant_path(self):
        assert p_variation_sum(constant_path(4), 1.7).value == 0.0

    def test_record_fields(self):
        rec = p_variation_sum(linear_path(3), 2.0)
        assert rec.level_or_n == 3 and rec.p == 2.0

    def test_uniform_grid_labels_n(self):
        path = SamplePath(UniformGrid(10), np.linspace(0.0, 1.0, 11))
        assert p_variation_sum(path, 1.0).level_or_n == 10

    def test_errors(self):
        path = SamplePath(DyadicGrid(0), np.array([0.0, 1.0]))
        with pytest.raises(ParameterError):
            p_variation_sum(path, 0.0)

    @given(
        scale=st.floats(0.01, 100.0),
        p=st.floats(0.2, 4.0),
        seed=st.integers(0, 10 ** 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_homogeneity(self, scale, p, seed):
        gen = np.random.default_rng(seed)
        values = np.concatenate([[0.0], gen.standard_normal(16)]).cumsum()
        values -= values[0]
        path = SamplePath(DyadicGrid(4), values)
        scaled = SamplePath(DyadicGrid(4), scale * values)
        assert p_variation_sum(scaled, p).value == pytest.approx(
            scale ** p * p_variation_sum(path, p).value, rel=1e-9
        )


class TestRenormalizedStatistic:
    """n^(p*alpha/2 - 1) times the p-variation sum on a uniform n-grid."""

    def test_exponent_vanishes_at_critical_p(self):
        n, alpha = 64, 1.25
        p = 2.0 / alpha
        path = SamplePath(UniformGrid(n), np.linspace(0.0, 1.0, n + 1))
        z = n ** (p * alpha / 2 - 1) * p_variation_sum(path, p).value
        assert z == pytest.approx(p_variation_sum(path, 2.0 / alpha).value, rel=1e-12)

    def test_linear_path_quadratic(self):
        n, p, alpha = 128, 2.0, 1.0
        path = SamplePath(UniformGrid(n), np.linspace(0.0, 1.0, n + 1))
        z = n ** (p * alpha / 2 - 1) * p_variation_sum(path, p).value
        assert z == pytest.approx(1.0 / n, rel=1e-12)

    def test_mean_converges_to_limit(self):
        # across-path mean of the critical statistic approaches the
        # theoretical limit (the per-path values stay dispersed)
        params = GreyParams(1.2, 0.7)
        rng = RngSpec(MASTER_SEED, 0)
        n, p = 2 ** 14, 2.0 / 1.2
        zs = []
        for i in range(200):
            path = sample_ggbm(params, UniformGrid(n), rng.stream(3000 + i))
            zs.append(n ** (p * 1.2 / 2 - 1) * p_variation_sum(path, p).value)
        mu = theoretical_variation_limit(params)
        assert abs(np.mean(zs) - mu) / mu < 0.10


class TestTrichotomy:
    def test_three_regimes(self):
        assert variation_trichotomy(1.0, 1.0, 3.0).regime is Regime.ZERO
        assert variation_trichotomy(1.0, 1.0, 1.0).regime is Regime.INFINITE
        crit = variation_trichotomy(1.0, 1.0, 2.0)
        assert crit.regime is Regime.CRITICAL_FINITE
        assert crit.limit == pytest.approx(1.0, abs=1e-14)

    def test_exact_comparison_tolerance(self):
        label = variation_trichotomy(1.2, 0.7, 2.0 / 1.2)
        assert label.regime is Regime.CRITICAL_FINITE

    @given(
        alpha=st.floats(0.2, 1.9),
        beta=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_flips(self, alpha, beta):
        p = 2.0 / alpha
        assert variation_trichotomy(alpha, beta, p).regime is Regime.CRITICAL_FINITE
        assert variation_trichotomy(alpha, beta, p + 0.01).regime is Regime.ZERO
        assert variation_trichotomy(alpha, beta, max(p - 0.01, 1e-6)).regime is Regime.INFINITE

    def test_label_invariants(self):
        with pytest.raises(ParameterError):
            TrichotomyLabel(Regime.CRITICAL_FINITE, None)
        with pytest.raises(ParameterError):
            TrichotomyLabel(Regime.ZERO, 1.0)


class TestVariationSequence:
    def test_linear_values(self):
        records = variation_sequence(linear_path(6), 2.0, [1, 2, 3, 4])
        assert [r.value for r in records] == pytest.approx([0.5, 0.25, 0.125, 0.0625], rel=1e-12)

    def test_top_level_matches_direct_sum(self, rng):
        path = sample_ggbm(GreyParams(1.0, 0.7), DyadicGrid(8), rng)
        rec = variation_sequence(path, 1.5, [8])[0]
        assert rec.value == p_variation_sum(path, 1.5).value

    def test_level_out_of_range(self):
        with pytest.raises(InputError):
            variation_sequence(linear_path(4), 1.0, [5])
        with pytest.raises(InputError):
            variation_sequence(SamplePath(UniformGrid(5), np.zeros(6)), 1.0, [1])

    def test_quadratic_variation_concentrates_for_brownian(self):
        rng = RngSpec(MASTER_SEED, 0)
        spreads = {}
        for level in (8, 14):
            values = []
            for i in range(100):
                path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(14), rng.stream(4000 + i))
                values.append(variation_sequence(path, 2.0, [level])[0].value)
            spreads[level] = np.std(values)
            assert np.mean(values) == pytest.approx(1.0, abs=0.05)
        assert spreads[14] < spreads[8]

    def test_regime_evidence_on_grey_paths(self):
        # p*alpha/2 < 1: medians grow fast across levels; > 1: they shrink
        # with per-level factor 2^(1 - p*alpha/2)
        params = GreyParams(1.2, 0.7)
        rng = RngSpec(MASTER_SEED, 0)
        v8_lo, v16_lo, v8_hi, v16_hi = [], [], [], []
        for i in range(100):
            path = sample_ggbm(params, DyadicGrid(16), rng.stream(5000 + i))
            lo = variation_sequence(path, 1.0, [8, 16])
            hi = variation_sequence(path, 2.0, [8, 16])
            v8_lo.append(lo[0].value)
            v16_lo.append(lo[1].value)
            v8_hi.append(hi[0].value)
            v16_hi.append(hi[1].value)
        assert np.median(v16_lo) > 4.0 * np.median(v8_lo)
        ratio = np.median(v16_hi) / np.median(v8_hi)
        assert ratio < 0.5  # decays toward zero (theoretical factor 2^-1.6)

    def test_critical_statistic_stays_dispersed_for_beta_below_one(self):
        # one subordinator scales the whole path, so the critical sum
        # converges to a random limit: its spread does not shrink in level
        params = GreyParams(1.2, 0.7)
        rng = RngSpec(MASTER_SEED, 0)
        by_level = {8: [], 16: []}
        for i in range(150):
            path = sample_ggbm(params, DyadicGrid(16), rng.stream(6000 + i))
            for rec in variation_sequence(path, 2.0 / 1.2, [8, 16]):
                by_level[rec.level_or_n].append(rec.value)
        assert np.std(by_level[16]) > 0.3
        assert np.std(by_level[16]) > 0.5 * np.std(by_level[8])


class TestHoelderBound:
    def test_linear_equality_case(self):
        sup_factor, p_value = hoelder_dominance_bound(linear_path(5), 1.0, 2.0)
        assert sup_factor == pytest.approx(2.0 ** -5, rel=1e-12)
        assert p_value == pytest.approx(1.0, rel=1e-12)
        q_var = p_variation_sum(linear_path(5), 2.0).value
        assert sup_factor * p_value == pytest.approx(q_var, rel=1e-12)

    def test_constant_path(self):
        assert hoelder_dominance_bound(constant_path(3), 1.0, 3.0) == (0.0, 0.0)

    def test_errors(self):
        with pytest.raises(ParameterError):
            hoelder_dominance_bound(linear_path(3), 2.0, 2.0)

    @given(p=st.floats(0.3, 3.0), gap=st.floats(0.1, 2.0), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_dominates_higher_exponent_sum(self, p, gap, seed):
        gen = np.random.default_rng(seed)
        values = np.concatenate([[0.0], gen.standard_normal(32).cumsum()])
        path = SamplePath(DyadicGrid(5), values)
        q = p + gap
        sup_factor, p_value = hoelder_dominance_bound(path, p, q)
        q_var = p_variation_sum(path, q).value
        assert sup_factor * p_value >= q_var * (1.0 - 1e-12)
