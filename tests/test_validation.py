import math

import numpy as np
import pytest

from greyvar import validation
from greyvar.errors import InputError, ParameterError
from greyvar.params import GreyParams
from greyvar.sampling import DyadicGrid, _block_paths, sample_ggbm_batch
from greyvar.special import mittag_leffler
from greyvar.validation import (
    CheckReport,
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    even_moment_formula,
    gauss_legendre_integral,
    special_identity_report,
)

from conftest import traced_peak


class TestCfCheckSpec:
    """check_increment_cf checks its settings before it draws a path."""

    def test_invariants(self, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError):
            check_increment_cf(GreyParams(1.0, 1.0), (1.0,), 0.5, 0.5, 20000, rng)
        with pytest.raises(ParameterError):
            check_increment_cf(GreyParams(1.0, 1.0), (1.0,), 0.0, 1.0, 500, rng)

    def test_non_dyadic_time_rejected(self, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(InputError):
            check_increment_cf(GreyParams(1.0, 1.0), (1.0,), 0.3, 1.0, 20000, rng)

    @pytest.mark.parametrize(
        ("thetas", "s", "t", "match"),
        [
            (("a",), 0.0, 1.0, r"^thetas\[0\] must be a real number"),
            ((1.0, True), 0.0, 1.0, r"^thetas\[1\] must be a real number"),
            ((1.0, 10 ** 400), 0.0, 1.0, r"^thetas\[1\] is outside the double range"),
            (1.0, 0.0, 1.0, "^thetas must be a sequence"),
            (None, 0.0, 1.0, "^thetas must be a sequence"),
            ((1.0,), None, 1.0, "^s must be a real number"),
            ((1.0,), "0.5", 1.0, "^s must be a real number"),
            ((1.0,), True, 1.0, "^s must be a real number"),
            ((1.0,), 0.0, np.bool_(True), "^t must be a real number"),
            ((1.0,), 0.0, 1j, "^t must be a real number"),
        ],
    )
    def test_non_real_field_is_named(self, thetas, s, t, match, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError, match=match):
            check_increment_cf(GreyParams(1.0, 1.0), thetas, s, t, 10_000, rng)

    def test_times_are_stored_as_given(self, rng):
        report = check_increment_cf(GreyParams(1.0, 1.0), np.array([1, 2]), np.float64(0.5), 1, 10_000, rng)
        thetas = [r["theta"] for r in report.rows]
        assert thetas == [1.0, 2.0] and all(type(x) is float for x in thetas)
        assert type(report.settings["s"]) is np.float64 and type(report.settings["t"]) is int


class TestIncrementCf:
    def test_brownian_full_increment(self, rng):
        report = check_increment_cf(GreyParams(1.0, 1.0), (0.0, 1.0), 0.0, 1.0, 20000, rng)
        assert report.passed
        by_theta = {r["theta"]: r for r in report.rows}
        assert by_theta[0.0]["empirical_re"] == 1.0
        assert by_theta[0.0]["theoretical"] == 1.0
        assert by_theta[1.0]["theoretical"] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_grey_increment_against_mittag_leffler(self, rng):
        params = GreyParams(1.2, 0.7)
        report = check_increment_cf(params, (1.0, 2.0), 0.5, 1.0, 30000, rng.stream(10))
        assert report.passed
        row = report.rows[0]
        assert row["theoretical"] == pytest.approx(
            mittag_leffler(0.7, 0.5 * 0.5 ** 1.2), rel=1e-12
        )
        assert abs(row["z_im"]) <= 4.0

    def test_imaginary_part_vanishes(self, rng):
        report = check_increment_cf(GreyParams(1.0, 0.6), (0.7,), 0.25, 0.75, 20000, rng.stream(20))
        assert abs(report.rows[0]["z_im"]) <= 4.0

    def test_cosine_estimator_is_even_in_theta(self, rng):
        report = check_increment_cf(GreyParams(1.2, 0.7), (1.3, -1.3), 0.0, 0.5, 20000, rng.stream(30))
        assert report.rows[0]["empirical_re"] == report.rows[1]["empirical_re"]


class TestEvenMoments:
    def test_brownian_second_moment(self, rng):
        report = check_even_moments(GreyParams(1.0, 1.0), 1.0, [2], 30000, rng)
        assert report.passed
        second = [r for r in report.rows if r["order"] == 2][0]
        assert second["theoretical"] == 1.0
        first = [r for r in report.rows if r["order"] == 1][0]
        assert first["theoretical"] == 0.0 and abs(first["z"]) <= 4.0

    def test_grey_second_moment_value(self, rng):
        report = check_even_moments(GreyParams(1.2, 0.5), 1.0, [2, 4], 30000, rng.stream(40))
        assert report.passed
        second = [r for r in report.rows if r["order"] == 2][0]
        assert second["theoretical"] == pytest.approx(1.1283791670955126, rel=1e-12)

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

    @pytest.mark.parametrize(
        ("t", "orders", "match"),
        [
            (True, [2], "^t must be a real number"),
            ("1", [2], "^t must be a real number"),
            (None, [2], "^t must be a real number"),
            (1.0, [2.0], "^orders must be integers, got 2.0"),
            (1.0, ["2"], "^orders must be integers"),
            (1.0, [2, True], "^orders must be integers, got True"),
            (1.0, 2, "^orders must be a sequence"),
        ],
    )
    def test_non_real_field_is_named(self, t, orders, match, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError, match=match):
            check_even_moments(GreyParams(1.0, 1.0), t, orders, 20000, rng)

    def test_numpy_integer_orders_and_time(self, rng):
        report = check_even_moments(GreyParams(1.0, 1.0), np.float64(0.5), np.array([2]), 10_000, rng)
        assert [r["order"] for r in report.rows] == [1, 2] and report.to_dict()["t"] == 0.5


class TestMixingDecay:
    def test_brownian_increments_uncorrelated(self, rng):
        report = check_mixing_decay(GreyParams(1.0, 1.0), [1, 2, 8, 64], 30000, rng)
        assert report.passed
        for row in report.rows:
            if row["lag"] >= 2:
                assert abs(row["z"]) <= 4.0
        assert report.rows[0]["covariance"] > 0.1  # lag-1 variance baseline

    def test_persistent_fbm_correlation_decays(self, rng):
        report = check_mixing_decay(GreyParams(1.4, 1.0), [2, 4, 16, 64], 40000, rng.stream(50))
        rows = {r["lag"]: r for r in report.rows}
        assert rows[2]["covariance"] > 0.0 and rows[2]["z"] > 4.0
        assert rows[2]["covariance"] > rows[16]["covariance"]

    def test_grey_paths_decay_at_long_lag(self, rng):
        report = check_mixing_decay(GreyParams(1.2, 0.6), [1, 2, 64], 30000, rng.stream(60))
        assert report.passed

    def test_lag_validation(self, rng):
        with pytest.raises(InputError):
            check_mixing_decay(GreyParams(1.0, 1.0), [0], 20000, rng)
        with pytest.raises(InputError):
            check_mixing_decay(GreyParams(1.0, 1.0), [256], 20000, rng)


def _spy_sampler(monkeypatch):
    """Replace the checks' sampler by a spy that records (grid, stream,
    n_paths) and returns zero paths, so that no path is drawn."""
    calls = []

    def spy(params, grid, stream, n_paths):
        calls.append((grid, stream, n_paths))
        return np.zeros((grid.n_increments + 1, n_paths))

    monkeypatch.setattr(validation, "sample_ggbm_batch", spy)
    return calls


def _forbidden(*args, **kwargs):
    raise AssertionError("no path may be sampled")


class TestCheckReport:
    def test_one_report_type_for_every_check(self, rng):
        params = GreyParams(1.0, 1.0)
        reports = [
            check_increment_cf(params, (1.0,), 0.5, 1.0, 10_000, rng),
            check_even_moments(params, 0.5, [2], 10_000, rng.stream(1)),
            check_mixing_decay(params, [1, 4], 10_000, rng.stream(2)),
        ]
        keys = [
            {"check", "alpha", "beta", "s", "t", "level", "passed", "rows"},
            {"check", "alpha", "beta", "t", "passed", "rows"},
            {"check", "alpha", "beta", "level", "passed", "rows"},
        ]
        for report, expected in zip(reports, keys):
            assert type(report) is CheckReport and type(report.passed) is bool
            out = report.to_dict()
            assert set(out) == expected
            assert out["passed"] is report.passed
            assert out["rows"] == list(report.rows) and all(type(r) is dict for r in report.rows)
        assert [r.to_dict()["check"] for r in reports] == ["increment-cf", "moments", "mixing-decay"]
        assert reports[0].to_dict()["level"] == 1 and reports[1].to_dict()["t"] == 0.5

    def test_mixing_verdict_reads_the_largest_lag_only(self, rng):
        report = check_mixing_decay(GreyParams(1.0, 1.0), [1, 64], 10_000, rng)
        assert abs(report.rows[0]["z"]) > 4.0 and report.passed

    def test_means_stream_chunks_in_substream_order(self, rng, monkeypatch):
        # Three blocks of 4,000, 4,000 and 2,000 paths: each row is the sum of
        # its per-block sums, path d drawn from substream d.
        monkeypatch.setattr(validation, "_block_paths", lambda m: 4000)
        params, n = GreyParams(1.2, 0.6), 10_000
        report = check_even_moments(params, 1.0, [2], n, rng)
        x = np.concatenate(
            [sample_ggbm_batch(params, DyadicGrid(0), rng.stream(d), min(4000, n - d))[1]
             for d in range(0, n, 4000)]
        )
        for row in report.rows:
            chunks = [x[d:d + 4000] ** row["order"] for d in range(0, n, 4000)]
            mean = sum(c.sum() for c in chunks) / n
            shift = chunks[0].mean()
            sq = sum(((c - shift) * (c - shift)).sum() for c in chunks) / n
            assert row["empirical"] == float(mean)
            assert row["se"] == math.sqrt(max(sq - (mean - shift) ** 2, 0.0) / n)

    @pytest.mark.parametrize(
        ("level", "n_paths"),
        [(6, 20_000), (6, 40_000), (7, 40_000), (12, 25_001), (22, 3)],
    )
    def test_means_draw_whole_blocks_in_substream_order(self, level, n_paths, rng, monkeypatch):
        calls = _spy_sampler(monkeypatch)
        validation._means(GreyParams(1.2, 0.6), DyadicGrid(level), n_paths, rng, lambda b: b[-1:])
        _assert_block_draws(calls, DyadicGrid(level), n_paths, rng)

    def test_cf_check_on_a_level_12_gap_draws_whole_blocks(self, rng, monkeypatch):
        calls = _spy_sampler(monkeypatch)
        report = check_increment_cf(GreyParams(1.2, 0.6), (1.0,), 0.0, 2.0 ** -12, 25_000, rng)
        assert report.rows[0]["empirical_re"] == 1.0
        _assert_block_draws(calls, DyadicGrid(12), 25_000, rng)

    def test_means_add_block_sums_in_order(self, rng):
        # Level 6 at 1,008 paths a block: blocks of 1,008, 1,008 and 484 paths.
        params, grid, n = GreyParams(1.2, 0.6), DyadicGrid(6), 2_500
        stats = lambda b: np.array([b[-1], b[1] * b[-1]])
        mean, se = validation._means(params, grid, n, rng, stats)
        block = _block_paths(grid.n_increments)
        sums = sq_sums = 0.0
        for d in range(0, n, block):
            rows = stats(sample_ggbm_batch(params, grid, rng.stream(d), min(block, n - d)))
            sums = sums + rows.sum(axis=1)
            if d == 0:
                shift = rows.mean(axis=1)
            centred = rows - shift[:, None]
            sq_sums = sq_sums + (centred * centred).sum(axis=1)
        assert block == 1008 and mean.tolist() == (sums / n).tolist()
        assert se == [math.sqrt(max(sq / n - (m - c) ** 2, 0.0) / n) for sq, m, c in zip(sq_sums, sums / n, shift)]

    def test_offset_rows_keep_their_standard_errors(self, rng):
        # Adding 10^6 to a row leaves its standard error as it is.  Squares of
        # rows without a shift cancel here: 10^12 - 10^12 keeps no digit of a
        # variance of order 1.
        params, grid, n = GreyParams(1.2, 0.6), DyadicGrid(1), 3_000
        x = sample_ggbm_batch(params, grid, rng.stream(0), n)[-1]
        _, [se] = validation._means(params, grid, n, rng, lambda b: b[-1:] + 1e6)
        assert se == pytest.approx(x.std() / math.sqrt(n), rel=1e-9)


def _assert_block_draws(calls, grid, n_paths, rng):
    """The spied draws on grid are _block_paths(m) paths each but a final
    remainder, and follow substream order over [0, n_paths)."""
    block = _block_paths(grid.n_increments)
    assert block == max(1, 2 ** 16 // (grid.n_increments + 1))
    starts = list(range(0, n_paths, block))
    assert calls == [(grid, rng.stream(d), min(block, n_paths - d)) for d in starts]


def _whole_batch_moments(params, grid, n_paths, rng, stats):
    """Mean and mean square of each row of stats over n_paths paths, every
    path's rows reduced at once: the paths are drawn in pieces of 1,000,
    not a multiple of any case's sampler block, and their rows joined
    before one sum per row."""
    rows = np.concatenate(
        [stats(sample_ggbm_batch(params, grid, rng.stream(d), min(1000, n_paths - d)))
         for d in range(0, n_paths, 1000)],
        axis=1,
    )
    return np.concatenate([rows.sum(axis=1), (rows * rows).sum(axis=1)]) / n_paths


def _tanh_of_all_increments(params, grid, lags):
    """The mixing check's rows from tanh of every increment of the batch."""
    scale = float(grid.n_increments) ** (params.alpha / 2.0)

    def stats(batch):
        f = np.tanh(np.diff(batch, axis=0) * scale)
        f_lags = [f[lag - 1] for lag in lags]
        return np.array([f[0], *f_lags, *(f[0] * fj for fj in f_lags)])

    return stats


class TestBlockReduction:
    """Each sampler block is reduced to its rows as it is drawn; the means
    and mean squares behind each report equal, to 1e-13 relative, those of
    one reduction over the whole batch.  (The reference's standard errors
    are not compared: at a level-12 gap, cos(theta delta) is 1 - O(1e-5),
    and a variance from its plain mean square keeps about 6 digits.)"""

    CASES = {
        "cf-L2": (check_increment_cf, ((0.5, 1.0, 2.0), 0.25, 0.75, 20_000)),
        "cf-L12": (check_increment_cf, ((1.0, 2.0), 0.5, 0.5 + 2.0 ** -12, 10_000)),
        "moments-L3": (check_even_moments, (0.375, [2, 4], 20_000)),
        "mixing-L3": (check_mixing_decay, ([1, 3, 8], 20_000)),
        # 39 sampler blocks of 508 paths and one of 188.
        "mixing-L7": (check_mixing_decay, ([1, 2, 100, 128], 20_000)),
    }

    @pytest.mark.parametrize("beta", [1.0, 0.6])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reports_equal_whole_chunk_reference(self, case, beta, rng, monkeypatch):
        check, settings = self.CASES[case]
        means, pairs = validation._means, []

        def both(params, grid, n_paths, rng, stats):
            mean, se = means(params, grid, n_paths, rng, stats)
            if check is check_mixing_decay:
                stats = _tanh_of_all_increments(params, grid, settings[0])
            square = np.array(se) ** 2 * n_paths + mean ** 2
            pairs.append((np.concatenate([mean, square]), _whole_batch_moments(params, grid, n_paths, rng, stats)))
            return mean, se

        monkeypatch.setattr(validation, "_means", both)
        check(GreyParams(1.2, beta), *settings, rng.stream(70))
        [(got, want)] = pairs
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_warm_mixing_check_holds_one_block(self, rng):
        # Drawn and reduced one summation chunk at a time, this check peaked
        # at 29.5 MiB; one sampler block at a time, at 4.6 MiB.
        params, lags = GreyParams(1.2, 0.6), (1, 2, 4, 8, 16, 32, 64)
        check_mixing_decay(params, lags, 2_000, rng)  # the plan and a full block's work array
        assert traced_peak(lambda: check_mixing_decay(params, lags, 20_000, rng)) < 6 * 2 ** 20

class TestChecksWithoutRows:
    def test_cf_needs_a_frequency(self, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError, match="thetas"):
            check_increment_cf(GreyParams(1.0, 1.0), (), 0.0, 1.0, 20000, rng)

    def test_moments_need_an_order(self, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError, match="orders"):
            check_even_moments(GreyParams(1.0, 1.0), 1.0, [], 20000, rng)

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_checks_need_a_path(self, n_paths, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError, match="at least one path"):
            check_even_moments(GreyParams(1.0, 1.0), 1.0, [2], n_paths, rng)
        with pytest.raises(ParameterError, match="at least one path"):
            check_mixing_decay(GreyParams(1.0, 1.0), [1, 2], n_paths, rng)

    @pytest.mark.parametrize(
        "n_paths", [10.5, 2.0, 10000.5, np.float64(20000.0), True, False, "3", None], ids=repr
    )
    def test_non_integer_count_names_n_paths(self, n_paths, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        params = GreyParams(1.0, 1.0)
        with pytest.raises(ParameterError, match="n_paths must be an integer"):
            check_even_moments(params, 1.0, [2], n_paths, rng)
        with pytest.raises(ParameterError, match="n_paths must be an integer"):
            check_mixing_decay(params, [1, 2], n_paths, rng)
        with pytest.raises(ParameterError, match="n_paths must be an integer"):
            check_increment_cf(params, (1.0,), 0.0, 1.0, n_paths, rng)

    def test_cf_spec_takes_numpy_integers(self, rng, monkeypatch):
        params = GreyParams(1.0, 1.0)
        same = [check_increment_cf(params, (1.0,), 0.0, 1.0, n, rng).to_dict() for n in (np.int64(10_000), 10_000)]
        assert same[0] == same[1]
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(ParameterError, match="1e4 paths"):
            check_increment_cf(params, (1.0,), 0.0, 1.0, np.int64(9999), rng)


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

    def test_integer_inputs(self):
        value = gauss_legendre_integral(np.cos, 0, 1, panels=np.int64(2), order=np.int64(8))
        assert value == pytest.approx(math.sin(1.0), rel=1e-14)

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"panels": 0}, "^panels must be an integer >= 1"),
            ({"panels": -2}, "^panels must be an integer >= 1"),
            ({"panels": 2.5}, "^panels must be an integer >= 1"),
            ({"panels": True}, "^panels must be an integer >= 1"),
            ({"order": 0}, "^order must be an integer >= 1"),
            ({"order": True}, "^order must be an integer >= 1"),
            ({"order": 8.0}, "^order must be an integer >= 1"),
            ({"b": math.inf}, "^b must be finite"),
            ({"a": -math.inf}, "^a must be finite"),
            ({"a": math.nan}, "^a must be finite"),
            ({"b": 10 ** 400}, "^b is outside the double range"),
            ({"b": "1"}, "^b must be a real number"),
            ({"a": False}, "^a must be a real number"),
        ],
    )
    def test_bad_input_is_a_parameter_error(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            gauss_legendre_integral(_forbidden, **{"a": 0.0, "b": 1.0, **kwargs})


class TestSpecialIdentityReport:
    def test_all_rows_pass(self):
        report = special_identity_report()
        assert report["passed"]
        names = [r["name"] for r in report["rows"]]
        assert len(names) == 2
        for row in report["rows"]:
            assert row["error"] <= row["tol"]


class TestLagsAreIntegers:
    @pytest.mark.parametrize("lags", [[1.5, 4], [1, 2.0], [True, 4]])
    def test_non_integer_lag_rejected(self, lags, rng, monkeypatch):
        monkeypatch.setattr(validation, "sample_ggbm_batch", _forbidden)
        with pytest.raises(InputError, match="not an integer"):
            check_mixing_decay(GreyParams(1.0, 1.0), lags, 10_000, rng)

    def test_numpy_integer_lags_accepted(self, rng):
        report = check_mixing_decay(GreyParams(1.0, 1.0), np.array([1, 4]), 10_000, rng)
        assert [r["lag"] for r in report.rows] == [1, 4]
        assert all(type(r["lag"]) is int for r in report.rows)
