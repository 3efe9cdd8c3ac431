"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: parameter/input/capacity/precondition
problems are usage errors (2), numerical failures are 3, I/O failures 4.
"""


class GreyVarError(Exception):
    """Base class for all package errors."""


class ParameterError(GreyVarError, ValueError):
    """A model or configuration parameter is outside its admissible range."""


class InputError(GreyVarError, ValueError):
    """A data argument (path, grid, time point) is malformed or unusable."""


class DegenerateDistributionError(ParameterError):
    """The requested distribution degenerates to a point mass; callers must
    special-case it instead of evaluating a density."""


class CapacityError(GreyVarError):
    """The request exceeds a documented size guard, such as the 2^24
    increments of the circulant ggBm sampler."""


class PreconditionError(GreyVarError):
    """A documented operation precondition does not hold."""


class NumericalError(GreyVarError):
    """A numerical procedure failed (circulant spectrum, double-range overflow, ...)."""


class EstimationError(GreyVarError):
    """An estimator cannot be evaluated on the given data."""


class NoSolutionError(EstimationError):
    """The inversion target lies outside the range of the model family."""
