"""greyvar: simulation and p-variation analysis of fractional and
generalized grey Brownian motion.

Library surface: exact path samplers, special functions of the grey
Brownian family, dyadic variation statistics with regime classification,
(alpha, beta) estimators and two-candidate discrimination, and seeded
statistical validation checks.  The `greyvar` CLI wraps everything into a
reproducible experiment harness.

Each public name is imported from its own module (`greyvar.sampling`,
`greyvar.variation`, `greyvar.inference`, ...); the package itself holds
only `__version__`, so importing one layer loads only the layers it uses.
"""

__version__ = "0.1.0"
