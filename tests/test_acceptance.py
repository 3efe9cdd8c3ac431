"""Acceptance suite: one test per gate criterion, at stated scale.

Each criterion computes a results dictionary through a deterministic
seeded run, prints one PASS/FAIL line, and asserts the stated thresholds.
The final test re-executes every criterion with the same seed and checks
byte-level reproducibility of the result sections.
"""

import math
import time

import numpy as np
from scipy.stats import ks_2samp

from greyvar.errors import NoSolutionError
from greyvar.inference import (
    Candidate,
    Label,
    discriminate,
    distinguishability_check,
    estimate_alpha,
    estimate_beta,
    region_for,
)
from greyvar.params import GreyParams
from greyvar.sampling import (
    DyadicGrid,
    RngSpec,
    sample_ggbm,
    sample_ggbm_batch,
    sample_mwright,
)
from greyvar.serialize import dump_report
from greyvar.special import mwright_moment, theoretical_variation_limit
from greyvar.validation import (
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    special_identity_report,
)
from greyvar.variation import variation_sequence

from conftest import MASTER_SEED, fbm_cholesky_batch, fbm_covariance

BASE = RngSpec(MASTER_SEED, 0)

_cache = {}
_elapsed = {}


def _results(name, fn):
    if name not in _cache:
        started = time.perf_counter()
        _cache[name] = fn()
        _elapsed[name] = time.perf_counter() - started
    return _cache[name]


def _report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    key = name.split()[0]
    line = f"ACCEPTANCE {name}: {status} ({detail}; {_elapsed.get(key, 0.0):.1f}s)"
    print(line)
    return line


# ------------------------------------------------------------ criterion 1


def _special_exactness():
    return special_identity_report()


def test_criterion_01_special_function_exactness():
    res = _results("01", _special_exactness)
    detail = "; ".join(f"{r['name']}: err {r['error']:.2e} tol {r['tol']:g}" for r in res["rows"])
    line = _report("01 special-function exactness", res["passed"], detail)
    assert res["passed"], line
    assert _elapsed["01"] < 10.0, f"runtime {_elapsed['01']:.1f}s exceeds 10s"


# ------------------------------------------------------------ criterion 2


def _mwright_sampler_moments():
    rows = []
    stream = 0
    for beta in (0.3, 0.5, 0.8):
        draws = sample_mwright(beta, BASE.stream(10_000 + stream), 10 ** 6)
        stream += 1
        for delta in (0.5, 1.0, 2.0):
            x = draws ** delta
            ref = mwright_moment(beta, delta)
            se = float(x.std()) / 1000.0
            z = (float(x.mean()) - ref) / se
            rows.append(
                {"beta": beta, "delta": delta, "mean": float(x.mean()), "ref": ref,
                 "z": float(z), "passed": bool(abs(z) <= 4.0)}
            )
    return {"rows": rows, "passed": all(r["passed"] for r in rows)}


def test_criterion_02_mwright_sampler_moments():
    res = _results("02", _mwright_sampler_moments)
    worst = max(abs(r["z"]) for r in res["rows"])
    line = _report("02 subordinator moments", res["passed"], f"9 combos, worst |z| {worst:.2f}")
    assert res["passed"], line
    assert _elapsed["02"] < 60.0


# ------------------------------------------------------------ criterion 3


def _fbm_exactness():
    rows = []
    for k, hurst in enumerate((0.3, 0.5, 0.7)):
        batch = fbm_cholesky_batch(
            hurst, DyadicGrid(8), BASE.stream(20_000 + 200_000 * k), 100_000
        )
        prod = batch[128] * batch[256]
        ref = fbm_covariance(hurst, 0.5, 1.0)
        se = float(prod.std()) / math.sqrt(prod.size)
        z = (float(prod.mean()) - ref) / se
        circ = sample_ggbm_batch(
            GreyParams(2 * hurst, 1.0), DyadicGrid(8), BASE.stream(120_000 + 200_000 * k), 10_000
        )
        ks = ks_2samp(np.diff(batch[:, :10_000], axis=0)[0], np.diff(circ, axis=0)[0])
        rows.append(
            {
                "hurst": hurst,
                "cov_z": float(z),
                "ks_pvalue": float(ks.pvalue),
                "passed": bool(abs(z) <= 4.0 and ks.pvalue > 0.001),
            }
        )
    return {"rows": rows, "passed": all(r["passed"] for r in rows)}


def test_criterion_03_fbm_exactness():
    res = _results("03", _fbm_exactness)
    detail = "; ".join(
        f"H={r['hurst']}: cov z {r['cov_z']:+.2f}, KS p {r['ks_pvalue']:.3f}" for r in res["rows"]
    )
    line = _report("03 fBm exactness", res["passed"], detail)
    assert res["passed"], line
    assert _elapsed["03"] < 120.0


# ------------------------------------------------------------ criterion 4


def _brownian_quadratic_variation():
    values = []
    for i in range(100):
        batch = sample_ggbm_batch(GreyParams(2 * 0.5, 1.0), DyadicGrid(14), BASE.stream(30_000 + i), 1)
        inc = np.diff(batch[:, 0])
        values.append(float(np.sum(inc * inc)))
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    return {
        "mean": mean,
        "sd": sd,
        "passed": bool(abs(mean - 1.0) <= 0.03 and sd < 0.05),
    }


def test_criterion_04_brownian_quadratic_variation():
    res = _results("04", _brownian_quadratic_variation)
    line = _report(
        "04 Brownian quadratic variation",
        res["passed"],
        f"mean {res['mean']:.4f} (within 3% of 1), sd {res['sd']:.4f} (< 0.05)",
    )
    assert res["passed"], line
    assert _elapsed["04"] < 60.0


# ------------------------------------------------------------ criterion 5


def _trichotomy_desk_scale():
    params = GreyParams(1.2, 0.7)
    v8_p2, v16_p2, v8_p1, v16_p1, v14_crit = [], [], [], [], []
    for i in range(200):
        path = sample_ggbm(params, DyadicGrid(16), BASE.stream(40_000 + i))
        rec = variation_sequence(path, 2.0, [8, 16])
        v8_p2.append(rec[0].value)
        v16_p2.append(rec[1].value)
        rec = variation_sequence(path, 1.0, [8, 16])
        v8_p1.append(rec[0].value)
        v16_p1.append(rec[1].value)
        v14_crit.append(variation_sequence(path, 2.0 / 1.2, [14])[0].value)
    mu = theoretical_variation_limit(params)
    shrink_ratio = float(np.median(v16_p2) / np.median(v8_p2))
    growth_ratio = float(np.median(v16_p1) / np.median(v8_p1))
    crit_dev = float(abs(np.mean(v14_crit) - mu) / mu)
    return {
        "shrink_ratio": shrink_ratio,
        "growth_ratio": growth_ratio,
        "critical_rel_dev": crit_dev,
        "mu": mu,
        "shrink_passed": bool(shrink_ratio < 0.25),
        "growth_passed": bool(growth_ratio > 4.0),
        "critical_passed": bool(crit_dev < 0.10),
    }


def test_criterion_05_trichotomy_desk_scale():
    res = _results("05", _trichotomy_desk_scale)
    passed = res["shrink_passed"] and res["growth_passed"] and res["critical_passed"]
    line = _report(
        "05 variation trichotomy",
        passed,
        f"p=2 median ratio {res['shrink_ratio']:.3f} (require < 0.25; scaling law gives 2^-1.6 = 0.330), "
        f"p=1 ratio {res['growth_ratio']:.1f} (require > 4), "
        f"critical mean dev {res['critical_rel_dev']:.1%} (require < 10%)",
    )
    assert _elapsed["05"] < 300.0
    assert passed, line


# ------------------------------------------------------------ helpers for 6-8


def _discrimination_run(pair, n_each, stream_base, level=14, threshold=0.5):
    c1, c2 = Candidate(GreyParams(*pair[0])), Candidate(GreyParams(*pair[1]))
    assert distinguishability_check(c1, c2).distinguishable
    counts = {"correct": 0, "wrong": 0, "inconclusive": 0}
    stream = stream_base
    for truth, want in ((c1, Label.FIRST), (c2, Label.SECOND)):
        for i in range(n_each):
            path = sample_ggbm(truth.params, DyadicGrid(level), BASE.stream(stream))
            stream += 1
            label = discriminate(path, c1, c2, threshold).label
            if label is want:
                counts["correct"] += 1
            elif label is Label.INCONCLUSIVE:
                counts["inconclusive"] += 1
            else:
                counts["wrong"] += 1
    total = 2 * n_each
    return {
        "counts": counts,
        "accuracy": counts["correct"] / total,
        "inconclusive_rate": counts["inconclusive"] / total,
        "n_decisions": total,
    }


# ------------------------------------------------------------ criterion 6


def _fbm_discrimination():
    res = _discrimination_run([(1.0, 1.0), (1.6, 1.0)], 200, 50_000)
    res["passed"] = bool(res["accuracy"] >= 0.95 and res["inconclusive_rate"] <= 0.05)
    return res


def test_criterion_06_fbm_discrimination():
    res = _results("06", _fbm_discrimination)
    line = _report(
        "06 fBm discrimination H=0.5 vs 0.8",
        res["passed"],
        f"accuracy {res['accuracy']:.1%} (require >= 95%), "
        f"inconclusive {res['inconclusive_rate']:.1%} (require <= 5%)",
    )
    assert res["passed"], line
    assert _elapsed["06"] < 180.0


# ------------------------------------------------------------ criterion 7


def _same_alpha_discrimination():
    check = distinguishability_check(
        Candidate(GreyParams(1.0, 0.3)), Candidate(GreyParams(1.0, 0.9))
    )
    res = _discrimination_run([(1.0, 0.3), (1.0, 0.9)], 100, 60_000)
    res["distinguishable"] = bool(check.distinguishable)
    res["passed"] = bool(check.distinguishable and res["accuracy"] >= 0.90)
    return res


def test_criterion_07_same_alpha_discrimination():
    res = _results("07", _same_alpha_discrimination)
    line = _report(
        "07 same-alpha discrimination beta 0.3 vs 0.9",
        res["passed"],
        f"distinguishable {res['distinguishable']}, accuracy {res['accuracy']:.1%} "
        f"(require >= 90%; the single-path critical sum has the dispersed "
        f"subordinator law, so per-path accuracy is information-capped)",
    )
    assert res["passed"], line


# ------------------------------------------------------------ criterion 8


def _different_alpha_discrimination():
    res = _discrimination_run([(1.2, 0.7), (1.6, 0.7)], 100, 70_000)
    res["passed"] = bool(res["accuracy"] >= 0.95)
    return res


def test_criterion_08_different_alpha_discrimination():
    res = _results("08", _different_alpha_discrimination)
    line = _report(
        "08 different-alpha discrimination (1.2,0.7) vs (1.6,0.7)",
        res["passed"],
        f"accuracy {res['accuracy']:.1%} (require >= 95%; decided on the "
        f"scale-free level drift at each candidate's critical exponent)",
    )
    assert res["passed"], line


# ------------------------------------------------------------ criterion 9


def _estimator_calibration():
    out = []
    stream = 80_000
    for alpha, beta in ((1.0, 0.5), (1.4, 0.6)):
        params = GreyParams(alpha, beta)
        region = region_for(params)
        alpha_hats, beta_hats, errors = [], [], 0
        for i in range(200):
            path = sample_ggbm(params, DyadicGrid(14), BASE.stream(stream))
            stream += 1
            alpha_hats.append(estimate_alpha(path, 1.0, (8, 14)).alpha_hat)
            try:
                beta_hats.append(estimate_beta(path, alpha, region).beta_hat)
            except NoSolutionError:
                errors += 1
        alpha_bias = float(np.mean(alpha_hats) - alpha)
        beta_median_bias = float(np.median(beta_hats) - beta) if beta_hats else math.inf
        out.append(
            {
                "alpha": alpha,
                "beta": beta,
                "region": region.value,
                "alpha_bias": alpha_bias,
                "beta_median_bias": beta_median_bias,
                "beta_errors": errors,
                "alpha_passed": bool(abs(alpha_bias) <= 0.05),
                "beta_passed": bool(abs(beta_median_bias) <= 0.08),
            }
        )
    return {
        "rows": out,
        "passed": all(r["alpha_passed"] and r["beta_passed"] for r in out),
    }


def test_criterion_09_estimator_calibration():
    res = _results("09", _estimator_calibration)
    detail = "; ".join(
        f"({r['alpha']},{r['beta']}): alpha bias {r['alpha_bias']:+.3f} (<= 0.05), "
        f"beta median bias {r['beta_median_bias']:+.3f} (<= 0.08, {r['beta_errors']} no-solution)"
        for r in res["rows"]
    )
    line = _report("09 estimator calibration", res["passed"], detail)
    assert res["passed"], ((
        "per-path beta inversion targets a dispersed statistic whose median "
        "is a boundary value; only the across-path mean concentrates. "
    ) + line)


# ----------------------------------------------------------- criterion 10


def _validation_suite():
    checks = []
    stream = 90_000
    for alpha, beta in ((1.0, 1.0), (1.2, 0.6)):
        params = GreyParams(alpha, beta)
        cf = check_increment_cf(params, (0.5, 1.0, 2.0), 0.5, 1.0, 100_000, BASE.stream(stream))
        stream += 100_000
        mom = check_even_moments(params, 1.0, [2, 4], 100_000, BASE.stream(stream))
        stream += 100_000
        mix = check_mixing_decay(
            params, [1, 2, 4, 8, 16, 32, 64], 100_000, BASE.stream(stream)
        )
        stream += 100_000
        checks.append(
            {
                "alpha": alpha,
                "beta": beta,
                "cf_passed": bool(cf.passed),
                "cf_max_z": max(max(abs(r["z_re"]), abs(r["z_im"])) for r in cf.rows),
                "moments_passed": bool(mom.passed),
                "moments_max_z": max(abs(r["z"]) for r in mom.rows),
                "mixing_passed": bool(mix.passed),
                "mixing_z_at_max_lag": mix.rows[-1]["z"],
            }
        )
    return {
        "checks": checks,
        "passed": all(
            c["cf_passed"] and c["moments_passed"] and c["mixing_passed"] for c in checks
        ),
    }


def test_criterion_10_validation_suite():
    res = _results("10", _validation_suite)
    detail = "; ".join(
        f"({c['alpha']},{c['beta']}): cf max|z| {c['cf_max_z']:.2f}, "
        f"moments max|z| {c['moments_max_z']:.2f}, mixing z@64 {c['mixing_z_at_max_lag']:+.2f}"
        for c in res["checks"]
    )
    line = _report("10 distributional validation", res["passed"], detail)
    assert res["passed"], line
    assert _elapsed["10"] < 300.0


# ----------------------------------------------------------- criterion 11


def test_criterion_11_determinism():
    recomputed = {
        "01": _special_exactness,
        "02": _mwright_sampler_moments,
        "03": _fbm_exactness,
        "04": _brownian_quadratic_variation,
        "05": _trichotomy_desk_scale,
        "06": _fbm_discrimination,
        "07": _same_alpha_discrimination,
        "08": _different_alpha_discrimination,
        "09": _estimator_calibration,
        "10": _validation_suite,
    }
    mismatches = []
    for name, fn in recomputed.items():
        _results(name, fn)  # ensure first run exists
        if dump_report(fn()) != dump_report(_cache[name]):
            mismatches.append(name)
    line = _report(
        "11 determinism",
        not mismatches,
        "all result sections byte-identical on re-run"
        if not mismatches
        else f"mismatched sections: {mismatches}",
    )
    assert not mismatches, line
