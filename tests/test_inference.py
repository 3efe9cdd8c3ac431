import numpy as np
import pytest

from greyvar.errors import (
    EstimationError,
    InputError,
    NoSolutionError,
    ParameterError,
    PreconditionError,
)
from greyvar.inference import (
    BetaRegion,
    Candidate,
    Label,
    discriminate,
    distinguishability_check,
    estimate_alpha,
    estimate_beta,
    estimate_beta_pooled,
    region_for,
)
from greyvar.params import GreyParams
from greyvar.sampling import DyadicGrid, RngSpec, SamplePath, sample_ggbm

from conftest import MASTER_SEED


def linear_path(level):
    return SamplePath(DyadicGrid(level), np.linspace(0.0, 1.0, 2 ** level + 1))


class TestCandidate:
    def test_derived_fields(self):
        c = Candidate(GreyParams(1.0, 1.0))
        assert c.mu == pytest.approx(1.0, abs=1e-14)
        assert c.params.p_critical == 2.0

    def test_p_crit_exceeds_one(self):
        for alpha in [0.3, 1.0, 1.9]:
            assert Candidate(GreyParams(alpha, 0.5)).params.p_critical > 1.0

    @pytest.mark.parametrize("params", [(1.0, 0.5), None], ids=repr)
    def test_params_must_be_grey_params(self, params):
        with pytest.raises(ParameterError, match="^params must be a GreyParams"):
            Candidate(params)


class TestDistinguishability:
    def test_different_alpha(self):
        r = distinguishability_check(
            Candidate(GreyParams(1.2, 0.7)), Candidate(GreyParams(1.6, 0.7))
        )
        assert r.distinguishable and "alpha" in r.reason

    def test_identical(self):
        r = distinguishability_check(
            Candidate(GreyParams(1.0, 0.5)), Candidate(GreyParams(1.0, 0.5))
        )
        assert not r.distinguishable

    def test_same_alpha_different_beta(self):
        r = distinguishability_check(
            Candidate(GreyParams(1.0, 0.3)), Candidate(GreyParams(1.0, 0.9))
        )
        # arguments 1.3 and 1.9 straddle the Gamma minimum at ~1.4616
        assert r.distinguishable

    def test_same_region_report(self):
        r = distinguishability_check(
            Candidate(GreyParams(1.0, 0.1)), Candidate(GreyParams(1.0, 0.4))
        )
        assert r.distinguishable

    def test_equal_gamma_pair_not_distinguishable(self):
        # Gamma(1.2) == Gamma(x) has a second root right of the minimum;
        # the matching betas give equal fingerprints at alpha = 1
        from scipy.optimize import brentq
        from scipy.special import gamma as G

        target = float(G(1.2))
        x2 = brentq(lambda x: G(x) - target, 1.4616321449683623, 3.0)
        r = distinguishability_check(
            Candidate(GreyParams(1.0, 0.2)), Candidate(GreyParams(1.0, x2 - 1.0))
        )
        assert not r.distinguishable
        assert "not distinguishable" in r.reason

    def test_equal_gamma_pair_reason_names_mu(self):
        # Gamma(1.25) == Gamma(x) right of the minimum: at alpha = 0.8 the betas
        # 0.2 and 0.8 (x - 1) give one critical mean mu.
        import math

        from scipy.optimize import brentq

        x2 = brentq(lambda x: math.gamma(x) - math.gamma(1.25), 1.4616321449683623, 3.0)
        c1, c2 = Candidate(GreyParams(0.8, 0.2)), Candidate(GreyParams(0.8, 0.8 * (x2 - 1.0)))
        r = distinguishability_check(c1, c2)
        assert not r.distinguishable
        assert r.reason.startswith(f"equal alpha and mu ({c1.mu:.6g} = {c2.mu:.6g})")


class TestEstimateAlpha:
    def test_linear_path_hits_boundary(self):
        est = estimate_alpha(linear_path(12), 2.0, (8, 12))
        assert est.alpha_hat == pytest.approx(2.0, abs=1e-9)
        assert est.boundary
        assert est.slope == pytest.approx(-1.0, abs=1e-12)

    def test_brownian_calibration(self):
        rng = RngSpec(MASTER_SEED, 0)
        hats = []
        for i in range(100):
            path = sample_ggbm(GreyParams(2 * 0.5, 1.0), DyadicGrid(14), rng.stream(i))
            hats.append(estimate_alpha(path, 1.0, (8, 14)).alpha_hat)
        assert abs(np.mean(hats) - 1.0) <= 0.05

    def test_grey_paths_unbiased_in_beta(self):
        rng = RngSpec(MASTER_SEED, 0)
        hats = []
        for i in range(100):
            path = sample_ggbm(GreyParams(1.4, 0.6), DyadicGrid(14), rng.stream(500 + i))
            hats.append(estimate_alpha(path, 1.0, (8, 14)).alpha_hat)
        assert abs(np.mean(hats) - 1.4) <= 0.07

    def test_scale_invariance(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(12), rng)
        scaled = SamplePath(path.grid, 3.7 * path.values)
        a = estimate_alpha(path, 1.0, (8, 12))
        b = estimate_alpha(scaled, 1.0, (8, 12))
        assert a.alpha_hat == pytest.approx(b.alpha_hat, rel=1e-12)

    def test_errors(self, rng):
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(10), rng)
        with pytest.raises(InputError):
            estimate_alpha(path, 1.0, (8, 11))
        with pytest.raises(InputError):
            estimate_alpha(path, 1.0, (8, 10))
        const = SamplePath(DyadicGrid(10), np.zeros(1025))
        with pytest.raises(EstimationError):
            estimate_alpha(const, 1.0, (6, 10))

    @pytest.mark.parametrize(
        ("level_range", "match"),
        [
            (5, "level_range must be a sequence"),
            (None, "level_range must be a sequence"),
            ((1, 2, 3), "level_range must be a pair"),
            (("a", 9), "level 'a' is not an integer"),
            ((5, "9"), "level '9' is not an integer"),
            ((5, 9.5), "level 9.5 is not an integer"),
            ((5, True), "level True is not an integer"),
        ],
        ids=repr,
    )
    def test_level_range_must_be_a_pair_of_levels(self, level_range, match):
        path = linear_path(10)
        with pytest.raises(InputError, match=f"^{match}"):
            estimate_alpha(path, 1.0, level_range)


class TestEstimateBeta:
    def test_region_helper(self):
        assert region_for(GreyParams(1.0, 0.3)) is BetaRegion.LOW
        assert region_for(GreyParams(1.0, 0.9)) is BetaRegion.HIGH

    def test_fbm_reduction_recovers_beta_one(self):
        # paths whose variation fluctuates high can push the target below
        # the attainable Gamma range and raise; the median of the rest
        # recovers the degenerate-subordinator case
        rng = RngSpec(MASTER_SEED, 0)
        hats, errors = [], 0
        for i in range(60):
            path = sample_ggbm(GreyParams(1.2, 1.0), DyadicGrid(12), rng.stream(1000 + i))
            try:
                hats.append(estimate_beta(path, 1.2, BetaRegion.HIGH).beta_hat)
            except NoSolutionError:
                errors += 1
        assert errors < 30
        assert abs(np.median(hats) - 1.0) <= 0.1

    def test_no_solution_for_oversized_variation(self):
        # tripling a Brownian path makes the critical sum ~9, far above
        # any attainable mean, driving the Gamma target below its minimum
        rng = RngSpec(MASTER_SEED, 0)
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(12), rng)
        big = SamplePath(path.grid, 3.0 * path.values)
        with pytest.raises(NoSolutionError):
            estimate_beta(big, 1.0, BetaRegion.HIGH)

    def test_boundary_flag_for_small_variation(self):
        rng = RngSpec(MASTER_SEED, 0)
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(12), rng)
        small = SamplePath(path.grid, 0.8 * path.values)
        est_high = estimate_beta(small, 1.0, BetaRegion.HIGH)
        assert est_high.boundary and est_high.beta_hat == 1.0
        est_low = estimate_beta(small, 1.0, BetaRegion.LOW)
        assert est_low.boundary and est_low.beta_hat == 0.0

    def test_input_error_on_constant_path(self):
        const = SamplePath(DyadicGrid(10), np.zeros(1025))
        with pytest.raises(InputError):
            estimate_beta(const, 1.0)

    def test_interior_inversion_round_trip(self):
        # construct a path whose critical sum equals the theoretical mean
        # exactly, then invert
        from greyvar.special import theoretical_variation_limit

        params = GreyParams(1.0, 0.3)
        mu = theoretical_variation_limit(params)
        n = 2 ** 10
        values = np.zeros(n + 1)
        step = (mu / n) ** 0.5
        values[1:] = np.cumsum(np.full(n, step))
        path = SamplePath(DyadicGrid(10), values)
        est = estimate_beta(path, 1.0, BetaRegion.LOW)
        assert not est.boundary
        assert est.beta_hat == pytest.approx(0.3, abs=1e-9)

    def test_pooled_estimator_concentrates(self):
        rng = RngSpec(MASTER_SEED, 0)
        for (alpha, beta, tol) in [(1.0, 0.9, 0.1), (1.6, 0.3, 0.15)]:
            params = GreyParams(alpha, beta)
            paths = [
                sample_ggbm(params, DyadicGrid(12), rng.stream(2000 + i)) for i in range(400)
            ]
            est = estimate_beta_pooled(paths, alpha, region_for(params))
            assert abs(est.beta_hat - beta) <= tol

    @pytest.mark.parametrize("region", list(BetaRegion))
    def test_single_path_is_pooled_estimate_of_one(self, region):
        path = sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(10), RngSpec(MASTER_SEED, 0).stream(2600))
        assert estimate_beta(path, 1.2, region) == estimate_beta_pooled([path], 1.2, region)

    @pytest.mark.parametrize("region", ["low", "high", "bogus", None, 0])
    def test_region_must_be_a_beta_region(self, region):
        path = sample_ggbm(GreyParams(1.0, 0.5), DyadicGrid(10), RngSpec(MASTER_SEED, 0).stream(2500))
        with pytest.raises(ParameterError, match="^region must be a BetaRegion"):
            estimate_beta(path, 1.0, region)
        with pytest.raises(ParameterError, match="^region must be a BetaRegion"):
            estimate_beta_pooled([path], 1.0, region)

    @pytest.mark.parametrize("alpha", [True, np.True_, "a", None, 1j], ids=repr)
    def test_non_real_alpha_is_named(self, alpha):
        path = linear_path(10)
        with pytest.raises(ParameterError, match="^alpha must be a real number"):
            estimate_beta(path, alpha)
        with pytest.raises(ParameterError, match="^alpha must be a real number"):
            estimate_beta_pooled([path], alpha)
        assert path._sums == {}


class TestDiscriminate:
    def test_requires_distinguishable_candidates(self, rng):
        path = sample_ggbm(GreyParams(1.0, 0.5), DyadicGrid(10), rng)
        c = Candidate(GreyParams(1.0, 0.5))
        with pytest.raises(PreconditionError):
            discriminate(path, c, c)

    def test_requires_level_eight(self, rng):
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(6), rng)
        with pytest.raises(PreconditionError):
            discriminate(path, Candidate(GreyParams(1.0, 1.0)), Candidate(GreyParams(1.6, 1.0)))

    def test_brownian_vs_smooth_candidate(self):
        rng = RngSpec(MASTER_SEED, 0)
        c1, c2 = Candidate(GreyParams(1.0, 1.0)), Candidate(GreyParams(1.6, 1.0))
        wins = 0
        for i in range(50):
            path = sample_ggbm(GreyParams(2 * 0.5, 1.0), DyadicGrid(12), rng.stream(3000 + i))
            d = discriminate(path, c1, c2)
            wins += d.label is Label.FIRST
            assert d.drift_expected is not None
        assert wins >= 48

    def test_symmetry(self, rng):
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(10), rng)
        c1, c2 = Candidate(GreyParams(1.0, 1.0)), Candidate(GreyParams(1.6, 1.0))
        d12 = discriminate(path, c1, c2)
        d21 = discriminate(path, c2, c1)
        mirror = {Label.FIRST: Label.SECOND, Label.SECOND: Label.FIRST,
                  Label.INCONCLUSIVE: Label.INCONCLUSIVE}
        assert d21.label is mirror[d12.label]
        assert d21.v == d12.v[::-1]
        assert d21.distances == d12.distances[::-1]

    def test_drift_fields_populated_for_distinct_alpha(self, rng):
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(12), rng)
        d = discriminate(path, Candidate(GreyParams(1.0, 1.0)), Candidate(GreyParams(1.6, 1.0)))
        assert d.drift_ratio is not None
        assert d.drift_expected in ("increasing", "decreasing")
        assert d.drift_levels == (6, 12)
        assert d.drift_consistent is True

    def test_distinct_alpha_label_is_scale_free(self, rng):
        # the subordinator multiplies the whole path; a constant factor
        # cancels from the level drift that decides distinct-alpha pairs
        path = sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(12), rng)
        c1, c2 = Candidate(GreyParams(1.2, 0.7)), Candidate(GreyParams(1.6, 0.7))
        label = discriminate(path, c1, c2).label
        assert label is Label.FIRST
        for scale in (1e-3, 1e3):
            scaled = SamplePath(path.grid, path.values * scale)
            assert discriminate(scaled, c1, c2).label is label

    def test_no_drift_fields_for_equal_alpha(self, rng):
        path = sample_ggbm(GreyParams(1.0, 0.3), DyadicGrid(10), rng)
        d = discriminate(path, Candidate(GreyParams(1.0, 0.3)), Candidate(GreyParams(1.0, 0.9)))
        assert d.drift_ratio is None

    def test_to_dict_round_trips_via_json(self, rng):
        import json

        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(10), rng)
        d = discriminate(path, Candidate(GreyParams(1.0, 1.0)), Candidate(GreyParams(1.6, 1.0)))
        payload = json.loads(json.dumps(d.to_dict()))
        assert payload["label"] in ("first", "second", "inconclusive")
        assert {"v1", "v2", "mu1", "mu2", "d1", "d2", "threshold"} <= set(payload)

    def test_concentration_improves_with_level_for_fbm(self):
        # fraction of critical sums within 10% of the limit grows in level
        rng = RngSpec(MASTER_SEED, 0)
        params = GreyParams(1.4, 1.0)
        mu = Candidate(params).mu
        fracs = []
        for level in (10, 12, 14):
            inside = 0
            for i in range(80):
                path = sample_ggbm(params, DyadicGrid(level), rng.stream(4000 + i))
                from greyvar.variation import p_variation_sum

                v = p_variation_sum(path, params.p_critical).value
                inside += abs(v - mu) / mu < 0.1
            fracs.append(inside / 80)
        assert fracs[-1] >= fracs[0]
        assert fracs[-1] >= 0.9

    def test_cross_variation_drift_matches_inclusion_geometry(self):
        # smoother paths have vanishing sums at the rougher critical
        # exponent and rough paths have exploding sums at the smoother one
        rng = RngSpec(MASTER_SEED, 0)
        from greyvar.variation import variation_sequence

        smooth = sample_ggbm(GreyParams(1.6, 1.0), DyadicGrid(14), rng.stream(1))
        rough = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(14), rng.stream(2))
        seq = variation_sequence(smooth, 2.0, [8, 14])
        assert seq[1].value < seq[0].value
        seq = variation_sequence(rough, 1.25, [8, 14])
        assert seq[1].value > seq[0].value
