"""heavyagg: a simulation and verification lab for heavy-tailed traffic aggregation.

The package simulates two classes of stationary inputs (Poisson shot noise and
regenerative processes built from heavy-tailed cycles), aggregates them into the
two-parameter random field A(x, y) over a time window scaled by lambda and a
source count scaled by lambda**gamma, and checks the resulting scaling behavior
against the laws of the three limit fields, stated by covariance and
characteristic-function oracles: the fractional Brownian sheet, the stable Levy
sheet, and the Telecom random field.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
