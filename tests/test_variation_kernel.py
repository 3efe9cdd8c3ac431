"""The variation kernel: one evaluation per (level, p) of a path, kept on it,
bit for bit equal to the direct sum, with typed errors for bad inputs."""

import copy
import importlib.util
import math
import os
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import greyvar.variation as variation
from greyvar.errors import InputError, NoSolutionError, NumericalError, ParameterError
from greyvar.inference import Candidate, discriminate, estimate_alpha, estimate_beta
from greyvar.params import GreyParams
from greyvar.sampling import DyadicGrid, RngSpec, SamplePath, UniformGrid, sample_ggbm
from greyvar.variation import (
    hoelder_dominance_bound,
    p_variation_sum,
    variation_sequence,
    variation_trichotomy,
)

from conftest import MASTER_SEED, traced_peak

ALPHA = 1.2
EXPONENTS = (0.5, 1.0, 2.0, 3.0, 2.0 / ALPHA)
BENCH_WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def ggbm_path(grid, stream=0):
    return sample_ggbm(GreyParams(ALPHA, 0.7), grid, RngSpec(MASTER_SEED, 0).stream(7000 + stream))


def direct_sum(values, step, p):
    return float(np.sum(np.abs(np.diff(values[::step])) ** p))


def outcome(call, path):
    """The call's result, or the name of the error it raised (beta
    inversion has no solution on some paths)."""
    try:
        return call(path)
    except NoSolutionError as exc:
        return type(exc).__name__


class _Spy:
    """Stands in for numpy inside greyvar.variation and counts np.subtract,
    which the kernel calls once per evaluated sum, and np.abs."""

    def __init__(self):
        self.evaluations = 0
        self.abs_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.evaluations += 1
        return np.subtract(*args, **kwargs)

    def abs(self, *args, **kwargs):
        self.abs_calls += 1
        return np.abs(*args, **kwargs)


class TestOracle:
    @pytest.mark.parametrize("order", ["levels-outer", "p-outer"])
    def test_dyadic_sums_equal_direct_sum(self, order):
        top = 10
        path = ggbm_path(DyadicGrid(top))
        pairs = [(level, p) for level in range(top + 1) for p in EXPONENTS]
        if order == "p-outer":
            pairs = sorted(pairs, key=lambda lp: (EXPONENTS.index(lp[1]), -lp[0]))
        for _ in range(2):  # first call, then the kept value
            for level, p in pairs:
                expected = direct_sum(path.values, 2 ** (top - level), p)
                assert variation_sequence(path, p, [level])[0].value == expected
                assert variation._level_sums(path, [level], p) == [expected]
        assert p_variation_sum(path, 2.0 / ALPHA).value == direct_sum(path.values, 1, 2.0 / ALPHA)

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_uniform_sums_equal_direct_sum(self, order):
        path = ggbm_path(UniformGrid(1000))
        exponents = EXPONENTS if order == "forward" else EXPONENTS[::-1]
        for _ in range(2):
            for p in exponents:
                assert p_variation_sum(path, p).value == direct_sum(path.values, 1, p)


class TestMultiLevelOracle:
    """One kernel call over many levels equals the per-level direct sums."""

    @pytest.mark.parametrize("p", EXPONENTS + (7.3,))
    def test_dyadic_levels_in_one_call(self, p):
        top = 12
        path = ggbm_path(DyadicGrid(top))
        levels = list(range(top + 1))
        expected = {level: direct_sum(path.values, 2 ** (top - level), p) for level in levels}
        np.random.default_rng(MASTER_SEED).shuffle(levels)
        variation._level_sums(path, levels[:4], p)  # some levels already kept
        requested = levels + levels[5:7]  # and some repeated
        assert variation._level_sums(path, requested, p) == [expected[lv] for lv in requested]
        assert path._sums == {(level, p): value for level, value in expected.items()}

    @pytest.mark.parametrize("p", EXPONENTS + (7.3,))
    def test_uniform_level_in_one_call(self, p):
        path = ggbm_path(UniformGrid(1000))
        expected = direct_sum(path.values, 1, p)
        assert variation._level_sums(path, [1000, 1000], p) == [expected, expected]
        assert variation._level_sums(path, [1000], p) == [expected]


class TestPowerShortcuts:
    """p = 1 takes no power and p = 2 squares without abs; both equal the
    direct sum of |increment|^p bit for bit."""

    INCREMENTS = (0.0, -0.0, 3.0, -3.0, 1.5e-3, -7.0e-5, 5e-324, -5e-324, 2.3e-310,
                  -1.1e-308, 1e154, -1.5e154, 1e300, -1e300)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("d", INCREMENTS, ids=repr)
    def test_single_increment(self, p, d):
        path = SamplePath(DyadicGrid(0), np.array([0.0, d]))
        with np.errstate(over="ignore"):
            term = float(np.abs(np.float64(d)) ** p)
        if math.isfinite(term):
            assert variation._level_sums(path, [0], p) == [term]
        else:
            with pytest.raises(NumericalError):
                variation._level_sums(path, [0], p)
            assert path._sums == {}

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_mixed_path(self, p):
        values = np.array([0.0, 0.0, 5e-324, -5e-324, 2.5, -1.0, -1.0, 1e-310, 0.0])
        path = SamplePath(DyadicGrid(3), values)
        expected = [direct_sum(values, 2 ** (3 - level), p) for level in range(4)]
        assert variation._level_sums(path, [3, 2, 1, 0], p) == expected[::-1]


class TestEvaluatedOnce:
    def test_analyse_path_sequence(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        monkeypatch.setattr(workloads, "FIT_LEVELS", (4, 12))
        params = GreyParams(ALPHA, 0.7)
        path = ggbm_path(DyadicGrid(12))
        spy = _Spy()
        monkeypatch.setattr(variation, "np", spy)
        _, attempted, failures = workloads._analyse_path(
            (path, params, workloads._candidates(params)))
        assert attempted > 0 and failures == []
        sums = list(path._sums)
        assert len(set(sums)) == len(sums)
        assert spy.evaluations == len(sums)
        assert (12, 2.0 / ALPHA) in path._sums

    @pytest.mark.parametrize("p, abs_calls", [(1 / 0.6, 1), (2.0, 0)])
    def test_one_call_one_power_pass(self, monkeypatch, p, abs_calls):
        path = ggbm_path(DyadicGrid(16))
        spy = _Spy()
        monkeypatch.setattr(variation, "np", spy)
        variation_sequence(path, p, range(8, 17))
        assert (spy.evaluations, spy.abs_calls) == (9, abs_calls)

    def test_repeated_calls_reuse_sums(self, monkeypatch):
        path = ggbm_path(DyadicGrid(10))
        own, rival = Candidate(GreyParams(ALPHA, 0.7)), Candidate(GreyParams(1.6, 0.7))
        spy = _Spy()
        monkeypatch.setattr(variation, "np", spy)
        first = discriminate(path, own, rival)
        count = spy.evaluations
        assert count > 0
        assert discriminate(path, own, rival) == first
        outcome(lambda p: estimate_beta(p, ALPHA), path)
        hoelder_dominance_bound(path, 2.0 / ALPHA, 3.0)
        assert spy.evaluations == count


class TestReadOnlyValues:
    def test_values_cannot_be_written(self):
        values = np.linspace(0.0, 1.0, 17)
        path = SamplePath(DyadicGrid(4), values)
        with pytest.raises(ValueError):
            path.values[1] = 0.0
        values[1] = 0.5
        assert values.flags.writeable

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_are_read_only_and_start_empty(self, duplicate):
        path = SamplePath(DyadicGrid(4), np.linspace(0.0, 1.0, 17), GreyParams(ALPHA, 0.7))
        p_variation_sum(path, 1.0)
        twin = duplicate(path)
        assert not twin.values.flags.writeable and twin._sums == {}
        assert np.array_equal(twin.values, path.values) and twin.params == path.params

    def test_values_share_the_callers_buffer(self):
        values = np.linspace(0.0, 1.0, 17)
        assert np.shares_memory(SamplePath(DyadicGrid(4), values).values, values)


def test_kernel_allocates_one_increment_buffer():
    path = ggbm_path(DyadicGrid(16))
    buffer_bytes = path.grid.n_increments * 8
    assert traced_peak(lambda: p_variation_sum(path, 2.0 / ALPHA)) < 1.5 * buffer_bytes


def test_multi_level_call_allocates_one_shared_buffer():
    path = ggbm_path(DyadicGrid(16))
    peak = traced_peak(lambda: variation_sequence(path, 1 / 0.6, range(8, 17)))
    assert peak < 1.25 * 2 ** 17 * 8


def test_shared_path_across_threads_matches_serial():
    own, rival_alpha, rival_beta = (Candidate(GreyParams(a, b))
                                    for a, b in ((ALPHA, 0.7), (1.6, 0.7), (ALPHA, 0.3)))
    calls = [lambda p: discriminate(p, own, rival_alpha),
             lambda p: discriminate(p, own, rival_beta),
             lambda p: estimate_beta(p, ALPHA)] * 4
    for stream in range(3):
        shared = ggbm_path(DyadicGrid(12), stream)
        serial = [outcome(call, copy.copy(shared)) for call in calls]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda call: outcome(call, shared), calls))
        assert threaded == serial


class TestExponentCheck:
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_p_variation_sum(self, p):
        with pytest.raises(ParameterError):
            p_variation_sum(ggbm_path(DyadicGrid(6)), p)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_estimate_alpha(self, p):
        with pytest.raises(ParameterError):
            estimate_alpha(ggbm_path(DyadicGrid(10)), p, (0, 10))

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.0])
    def test_variation_trichotomy(self, p):
        with pytest.raises(ParameterError):
            variation_trichotomy(ALPHA, 0.7, p)

    @pytest.mark.parametrize("p, q", [(1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)])
    def test_hoelder_dominance_bound(self, p, q):
        with pytest.raises(ParameterError):
            hoelder_dominance_bound(ggbm_path(DyadicGrid(6)), p, q)

    @pytest.mark.parametrize("p", [True, np.True_, "a", None, 1j], ids=repr)
    @pytest.mark.parametrize(
        "call", ["p_variation_sum", "variation_sequence", "variation_trichotomy", "hoelder_dominance_bound"]
    )
    def test_non_real_p_is_named(self, call, p):
        path = ggbm_path(DyadicGrid(6))
        calls = {
            "p_variation_sum": lambda: p_variation_sum(path, p),
            "variation_sequence": lambda: variation_sequence(path, p, [2]),
            "variation_trichotomy": lambda: variation_trichotomy(ALPHA, 0.7, p),
            "hoelder_dominance_bound": lambda: hoelder_dominance_bound(path, p, 3.0),
        }
        with pytest.raises(ParameterError, match="^p must be a real number"):
            calls[call]()
        assert path._sums == {}

    @pytest.mark.parametrize("q", [True, "a", None], ids=repr)
    def test_non_real_q_is_named(self, q):
        with pytest.raises(ParameterError, match="^q must be a real number"):
            hoelder_dominance_bound(ggbm_path(DyadicGrid(6)), 1.0, q)


class TestOverflow:
    def steep_path(self):
        return SamplePath(DyadicGrid(10), np.linspace(0.0, 10.0, 1025))

    def test_variation_sequence_names_p_and_level(self):
        with pytest.raises(NumericalError, match=r"p=2000\.0, level 0"):
            variation_sequence(self.steep_path(), 2000.0, [0, 1])

    def test_estimate_alpha(self):
        with pytest.raises(NumericalError):
            estimate_alpha(self.steep_path(), 2000.0, (0, 10))

    def test_hoelder_sup_factor(self):
        path = SamplePath(DyadicGrid(10), np.linspace(0.0, 1e4, 1025))
        with pytest.raises(NumericalError, match=r"q=401\.0"):
            hoelder_dominance_bound(path, 1.0, 401.0)

    def test_multi_level_call_names_first_overflow_in_request_order(self):
        path = self.steep_path()
        with pytest.raises(NumericalError, match=r"p=2000\.0, level 2\b"):
            variation._level_sums(path, [5, 2, 0, 1, 4], 2000.0)
        assert set(path._sums) <= {(5, 2000.0), (4, 2000.0)}
        assert (5, 2000.0) in path._sums

    def test_overflowing_increment_is_named(self):
        path = SamplePath(DyadicGrid(1), np.array([0.0, 1.5e308, -1.5e308]))
        with pytest.raises(NumericalError, match=r"p=1\.0, level 1\b"):
            variation._level_sums(path, [0, 1], 1.0)
        assert list(path._sums) == [(0, 1.0)]

    def test_overflowed_sum_is_not_kept(self):
        path = self.steep_path()
        with pytest.raises(NumericalError):
            variation_sequence(path, 2000.0, [0])
        assert (0, 2000.0) not in path._sums


@pytest.mark.parametrize("threshold", [True, "a", None], ids=repr)
def test_non_real_threshold_is_named(threshold):
    own, rival = Candidate(GreyParams(ALPHA, 0.7)), Candidate(GreyParams(ALPHA, 0.3))
    with pytest.raises(ParameterError, match="^threshold must be a real number"):
        discriminate(ggbm_path(DyadicGrid(10)), own, rival, threshold=threshold)


def test_nan_threshold_rejected():
    own, rival = Candidate(GreyParams(ALPHA, 0.7)), Candidate(GreyParams(ALPHA, 0.3))
    for threshold in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="threshold"):
            discriminate(ggbm_path(DyadicGrid(10)), own, rival, threshold=threshold)


@pytest.mark.parametrize("level", [3.0, True, "3"])
def test_non_integer_level_names_it(level):
    with pytest.raises(InputError, match=repr(level)):
        variation_sequence(ggbm_path(DyadicGrid(6)), 1.0, [level])


@pytest.mark.parametrize("levels", [5, None])
def test_non_iterable_levels_name_them(levels):
    with pytest.raises(InputError, match="^levels must be a sequence"):
        variation_sequence(ggbm_path(DyadicGrid(6)), 1.0, levels)
