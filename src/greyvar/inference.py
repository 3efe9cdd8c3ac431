"""Parameter estimation and two-candidate discrimination from one path.

The critical-exponent variation sum is the fingerprint statistic: its
level scaling identifies alpha, and its magnitude feeds a Gamma-function
inversion for beta.  Discrimination follows the same split.  Candidates
with different alpha are told apart by the level drift of each one's
critical sum, which the path-global subordinator cancels from; candidates
sharing alpha are told apart by the magnitude of the critical sum,
relative to each candidate's theoretical mean, within a threshold band.

Note that for beta < 1 the critical variation of a single path converges
to a nondegenerate random limit (the subordinator multiplies the whole
path), so per-path beta inference carries irreducible dispersion; see
estimate_beta_pooled for the across-path aggregate that concentrates.

Gamma values come from special.gamma (the standard library's math.gamma),
and the beta inversion bisects Gamma on one of its monotone brackets, left
or right of the minimum, to 1e-13 in the argument.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EstimationError,
    InputError,
    NoSolutionError,
    ParameterError,
    PreconditionError,
)
from .params import GreyParams, _real, _sequence
from .sampling import SamplePath
from .special import GAMMA_ARGMIN, GAMMA_MIN, gamma, normal_abs_moment, theoretical_variation_limit
from .variation import _check_levels, _level_sums, p_variation_sum, variation_sequence

__all__ = [
    "Candidate",
    "DistinguishabilityResult",
    "distinguishability_check",
    "AlphaEstimate",
    "estimate_alpha",
    "BetaRegion",
    "BetaEstimate",
    "estimate_beta",
    "estimate_beta_pooled",
    "region_for",
    "Label",
    "Decision",
    "discriminate",
]

# Relative tolerance for treating two floats (parameters, critical means
# or Gamma values) as equal.
PARAM_REL_TOL = 1e-10


@dataclass(frozen=True)
class Candidate:
    """One hypothesized parameter pair with its derived fingerprint."""

    params: GreyParams
    mu: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", theoretical_variation_limit(self.params))


@dataclass(frozen=True)
class DistinguishabilityResult:
    distinguishable: bool
    reason: str

    def __bool__(self) -> bool:
        return self.distinguishable


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PARAM_REL_TOL, abs_tol=0.0)


def distinguishability_check(c1: Candidate, c2: Candidate) -> DistinguishabilityResult:
    """Whether the variation fingerprint separates the two candidates.

    Different alpha always separates; equal alpha separates when the
    critical means mu differ, since the equal-alpha rule compares V with mu.
    Equal-mu pairs with different beta are reported as not distinguishable
    by this method (no equivalence claim is made).
    """
    if not _isclose(c1.params.alpha, c2.params.alpha):
        return DistinguishabilityResult(True, "alpha differs")
    if _isclose(c1.params.beta, c2.params.beta):
        return DistinguishabilityResult(False, "identical parameters")
    if _isclose(c1.mu, c2.mu):
        return DistinguishabilityResult(
            False,
            f"equal alpha and mu ({c1.mu:.6g} = {c2.mu:.6g}); "
            "not distinguishable by the variation fingerprint",
        )
    return DistinguishabilityResult(True, f"equal alpha, mu values differ ({c1.mu:.6g} vs {c2.mu:.6g})")


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    std_error: float
    slope: float
    p: float
    levels: Tuple[int, int]
    boundary: bool


def _check_level_range(level_range: Tuple[int, int], top: int) -> Tuple[int, int]:
    """level_range as a pair (low, high) of levels, or the InputError
    estimate_alpha raises for it on a level-top path."""
    pair = _sequence(level_range, "level_range", InputError)
    if len(pair) != 2:
        raise InputError(f"level_range must be a pair (low, high), got {level_range!r}")
    n_lo, n_hi = _check_levels(pair, None)
    if n_hi > top:
        raise InputError(f"level range top {n_hi} exceeds path level {top}")
    if n_hi - n_lo < 3:
        raise InputError("level range must span at least 3 octaves")
    _check_levels([n_lo], top)
    return n_lo, n_hi


def estimate_alpha(
    path: SamplePath, p: float, level_range: Tuple[int, int]
) -> AlphaEstimate:
    """Scaling estimator: least-squares slope of log2 V_n against level n.

    The level sequence scales like 2^(n(1 - p*alpha/2)), so
    alpha_hat = 2(1 - slope)/p.  The path-global subordinator shifts every
    level equally and cancels from the slope.  Estimates outside (0, 2)
    are flagged, not clamped.
    """
    n_lo, n_hi = _check_level_range(level_range, path.dyadic_level)
    levels = np.arange(n_lo, n_hi + 1)
    records = variation_sequence(path, p, levels)
    values = np.array([r.value for r in records])
    if np.any(values <= 0.0):
        raise EstimationError("variation sums vanish; scaling regression undefined")
    ys = np.log2(values)
    xs = levels.astype(float)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = len(xs) - 2
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    se_slope = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    alpha_hat = 2.0 * (1.0 - float(slope)) / p
    return AlphaEstimate(
        alpha_hat=alpha_hat,
        std_error=2.0 * se_slope / p,
        slope=float(slope),
        p=p,
        levels=(n_lo, n_hi),
        boundary=not (0.0 < alpha_hat < 2.0),
    )


class BetaRegion(enum.Enum):
    """Monotonicity region of Gamma used for the beta inversion: LOW keeps
    the argument beta/alpha + 1 left of the Gamma minimum, HIGH right."""

    LOW = "low"
    HIGH = "high"


def region_for(params: GreyParams) -> BetaRegion:
    """Region containing the true beta (needed to invert unambiguously)."""
    return BetaRegion.LOW if params.beta / params.alpha + 1.0 <= GAMMA_ARGMIN else BetaRegion.HIGH


@dataclass(frozen=True)
class BetaEstimate:
    beta_hat: float
    region: BetaRegion
    boundary: bool
    target_gamma: float
    v_value: float


# Targets this far (relatively) below the Gamma minimum cannot come from
# rounding or mild sampling noise around an attainable value; closer misses
# clamp to the argmin with a boundary flag (the inversion is flat there).
_GAMMA_MIN_GRACE = 1e-3


def _gamma_root(target: float, lo: float, hi: float) -> float:
    """x in [lo, hi] with Gamma(x) = target, by bisection to 1e-13.

    Gamma is monotone on [lo, hi]; a target outside Gamma's range there
    gives the nearer end of the bracket.
    """
    rising = gamma(hi) > gamma(lo)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if (gamma(mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _beta_from_target(alpha: float, target: float, region: BetaRegion) -> Tuple[float, bool]:
    """Solve Gamma(beta/alpha + 1) = target inside the chosen region."""
    if target < GAMMA_MIN * (1.0 - _GAMMA_MIN_GRACE):
        raise NoSolutionError(
            f"target Gamma value {target:.6g} lies below the Gamma minimum {GAMMA_MIN:.6g}"
        )
    if region is BetaRegion.LOW:
        # Gamma decreases from 1 toward GAMMA_MIN on (1, argmin]
        if target >= 1.0:
            return 0.0, True
        if target <= GAMMA_MIN:
            return alpha * (GAMMA_ARGMIN - 1.0), True
        x = _gamma_root(target, 1.0 + 1e-12, GAMMA_ARGMIN)
        return alpha * (x - 1.0), False
    x_max = 1.0 / alpha + 1.0
    g_max = gamma(x_max)
    if target >= g_max:
        return 1.0, not _isclose(target, g_max)
    if target <= GAMMA_MIN:
        return alpha * (GAMMA_ARGMIN - 1.0), True
    x = _gamma_root(target, GAMMA_ARGMIN, x_max)
    return alpha * (x - 1.0), False


def _beta_from_sums(alpha: float, sums: Sequence[float], region: BetaRegion) -> BetaEstimate:
    """Beta from the mean of critical variation sums, V at p = 2/alpha, at an
    alpha already checked to lie in (0, 2)."""
    v = float(np.mean(sums))
    if v <= 0.0:
        raise InputError("critical variation must be positive")
    target = gamma(1.0 / alpha + 1.0) * normal_abs_moment(2.0 / alpha) / v
    beta_hat, boundary = _beta_from_target(alpha, target, region)
    return BetaEstimate(
        beta_hat=beta_hat, region=region, boundary=boundary, target_gamma=target, v_value=v
    )


def estimate_beta(
    path: SamplePath, alpha: float, region: BetaRegion = BetaRegion.LOW
) -> BetaEstimate:
    """Invert the critical variation magnitude for beta at known alpha.

    Solves Gamma(beta/alpha + 1) = Gamma(1/alpha + 1) E|Z|^(2/alpha) / V
    by bisection within the requested monotonicity region; targets outside
    the region's Gamma range return the nearest admissible beta with a
    boundary flag, and targets below the global Gamma minimum raise.
    """
    return estimate_beta_pooled([path], alpha, region)


def estimate_beta_pooled(
    paths: Sequence[SamplePath], alpha: float, region: BetaRegion = BetaRegion.LOW
) -> BetaEstimate:
    """Beta inversion at the across-path mean critical variation.

    The mean of V over independent paths concentrates on the theoretical
    limit, so this aggregate is consistent as the batch grows, unlike the
    dispersed per-path inversion.
    """
    if not paths:
        raise InputError("need at least one path")
    if not (0.0 < _real(alpha, "alpha") < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    if not isinstance(region, BetaRegion):
        raise ParameterError(f"region must be a BetaRegion, got {region!r}")
    return _beta_from_sums(alpha, [p_variation_sum(p, 2.0 / alpha).value for p in paths], region)


class Label(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Decision:
    """Outcome of a two-candidate discrimination on one path."""

    label: Label
    v: Tuple[float, float]
    mu: Tuple[float, float]
    distances: Tuple[float, float]
    threshold: float
    drift_ratio: Optional[float] = None
    drift_expected: Optional[str] = None
    drift_consistent: Optional[bool] = None
    drift_levels: Optional[Tuple[int, int]] = None

    def to_dict(self) -> dict:
        return {
            "label": self.label.value,
            "v1": self.v[0],
            "v2": self.v[1],
            "mu1": self.mu[0],
            "mu2": self.mu[1],
            "d1": self.distances[0],
            "d2": self.distances[1],
            "threshold": self.threshold,
            "drift_ratio": self.drift_ratio,
            "drift_expected": self.drift_expected,
            "drift_consistent": self.drift_consistent,
            "drift_levels": list(self.drift_levels) if self.drift_levels else None,
        }


def _check_discrimination(top: int, threshold: float) -> None:
    """Raise the error discriminate raises for a level-top path and threshold."""
    if top < 8:
        raise PreconditionError("discrimination needs a dyadic path of level >= 8")
    if not 0.0 < _real(threshold, "threshold") < math.inf:
        raise ParameterError(f"threshold must be positive and finite, got {threshold}")


def discriminate(
    path: SamplePath,
    c1: Candidate,
    c2: Candidate,
    threshold: float = 0.5,
) -> Decision:
    """Assign the path to one of two distinguishable candidates.

    Distinct alpha: at its own critical exponent the true law's sums have
    the same mean on every dyadic level, while the other candidate's sums
    drift toward 0 or infinity.  The path goes to the candidate whose
    sequence is flattest, |log2(V_top / V_lo)| with lo = max(1, top - 6).
    A constant factor on the path, such as the subordinator Y^(1/2),
    cancels from this ratio, so the decision is scale-free.  The drift of
    the loser's sums must also point the way the winner's scaling
    dictates (toward 0 when the winner's alpha is larger), otherwise the
    decision is demoted to inconclusive; these drift diagnostics are
    reported.  Vanishing sums leave the decision inconclusive.

    Equal alpha: the path goes to the candidate whose critical-variation
    mean is relatively closest, |V - mu| / mu, provided that distance is
    below ``threshold``; otherwise the decision is inconclusive.
    ``threshold`` gates this branch only.  The relative distances are
    reported for both branches.
    """
    check = distinguishability_check(c1, c2)
    if not check:
        raise PreconditionError(f"candidates not distinguishable: {check.reason}")
    top = path.dyadic_level
    _check_discrimination(top, threshold)

    same_alpha = _isclose(c1.params.alpha, c2.params.alpha)
    lo = max(1, top - 6)
    levels = [top] if same_alpha else [top, lo]
    sums1, sums2 = (_level_sums(path, levels, c.params.p_critical) for c in (c1, c2))
    v1, v2 = sums1[0], sums2[0]
    d1 = abs(v1 - c1.mu) / c1.mu
    d2 = abs(v2 - c2.mu) / c2.mu
    decision = dict(v=(v1, v2), mu=(c1.mu, c2.mu), distances=(d1, d2), threshold=threshold)

    if same_alpha:
        label = Label.INCONCLUSIVE
        if d1 != d2 and min(d1, d2) < threshold:
            label = Label.FIRST if d1 < d2 else Label.SECOND
        return Decision(label, **decision)

    decision["drift_levels"] = (lo, top)
    w1, w2 = sums1[1], sums2[1]
    if min(v1, v2, w1, w2) <= 0.0:
        return Decision(Label.INCONCLUSIVE, **decision)
    flat1 = abs(math.log2(v1 / w1))
    flat2 = abs(math.log2(v2 / w2))
    if flat1 == flat2:
        return Decision(Label.INCONCLUSIVE, **decision)
    winner_first = flat1 < flat2
    winner, loser = (c1, c2) if winner_first else (c2, c1)
    drift_ratio = v2 / w2 if winner_first else v1 / w1
    drift_expected = "decreasing" if winner.params.alpha > loser.params.alpha else "increasing"
    drift_consistent = drift_ratio < 1.0 if drift_expected == "decreasing" else drift_ratio > 1.0
    label = Label.INCONCLUSIVE
    if drift_consistent:
        label = Label.FIRST if winner_first else Label.SECOND
    return Decision(
        label,
        drift_ratio=drift_ratio,
        drift_expected=drift_expected,
        drift_consistent=drift_consistent,
        **decision,
    )
