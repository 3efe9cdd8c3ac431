"""greyvar: simulation and p-variation analysis of fractional and
generalized grey Brownian motion.

Library surface: exact path samplers, special functions of the grey
Brownian family, dyadic variation statistics with regime classification,
(alpha, beta) estimators and two-candidate discrimination, and seeded
statistical validation checks.  The `greyvar` CLI wraps everything into a
reproducible experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DegenerateDistributionError,
    EstimationError,
    GreyVarError,
    InputError,
    NoSolutionError,
    NumericalError,
    ParameterError,
    PreconditionError,
)
from .inference import (
    AlphaEstimate,
    BetaEstimate,
    BetaRegion,
    Candidate,
    Decision,
    DistinguishabilityResult,
    Label,
    discriminate,
    distinguishability_check,
    estimate_alpha,
    estimate_beta,
    estimate_beta_pooled,
    region_for,
)
from .params import GreyParams
from .sampling import (
    DyadicGrid,
    RngSpec,
    SamplePath,
    UniformGrid,
    sample_ggbm,
    sample_ggbm_batch,
    sample_mwright,
)
from .special import (
    mittag_leffler,
    mwright_moment,
    mwright_pdf,
    normal_abs_moment,
    theoretical_variation_limit,
)
from .validation import (
    check_even_moments,
    check_increment_cf,
    check_mixing_decay,
    special_identity_report,
)
from .variation import (
    Regime,
    TrichotomyLabel,
    VariationRecord,
    hoelder_dominance_bound,
    p_variation_sum,
    variation_sequence,
    variation_trichotomy,
)
