"""The three-way scaling table shared by both input classes.

Aggregating floor(y * lambda**gamma) sources over windows (0, lambda * x]
gives one of three limits, depending on how gamma compares with the critical
exponent gamma0 of the source: a fractional Brownian sheet above it, a stable
Levy sheet below it, and an intermediate field at it.  Each input class
computes its family constants; ``build_regime`` turns them into the table
entry with the limit's log characteristic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heavy_tail import stable_params_from_tails

__all__ = ["RegimeSpec", "build_regime"]


@dataclass(frozen=True)
class RegimeSpec:
    """Predicted scaling limit for one (source, gamma) pair.

    ``limit_kind`` is "FBS" (gamma above critical), "StableSheet" (below), or
    "Intermediate" (at the critical point).  ``constants`` holds the family's
    closed-form ingredients; ``logchf`` maps (theta, x, y) to the limit field's
    log characteristic function at the point (x, y).
    """

    gamma0: float
    gamma: float
    H: float
    alpha: float
    limit_kind: str
    constants: dict
    logchf: object = field(default=None, repr=False, compare=False)


def build_regime(
    gamma: float, gamma0: float, alpha: float, constants: dict, stable_tails, intermediate
) -> RegimeSpec:
    """The table entry at growth exponent gamma from a source's constants.

    ``constants`` holds the covariance tail constant "c_X", the exponent "H1"
    of the FBS limit in x, and the jump tails "c_plus" and "c_minus";
    ``stable_tails`` are the two tail constants of the stable sheet's jumps.
    ``intermediate()`` is called only at the critical point and returns the
    extra constants and the log characteristic function of that limit (or
    raises when the source has none).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    h1 = constants["H1"]
    # gamma0 comes out of float arithmetic (1.4 - 1.0 == 0.3999999999999999),
    # so a gamma that equals it up to rounding is the critical exponent
    critical = math.isclose(gamma, gamma0, rel_tol=1e-12, abs_tol=1e-12)
    if gamma > gamma0 and not critical:
        c_w = math.sqrt(constants["c_X"] / ((2.0 * h1 - 1.0) * h1))

        def gaussian_logchf(theta, x=1.0, y=1.0):
            theta = np.asarray(theta, dtype=float)
            return -0.5 * theta**2 * c_w**2 * x ** (2.0 * h1) * y + 0j

        return RegimeSpec(gamma0, gamma, h1 + gamma / 2.0, alpha, "FBS", {**constants, "C_W": c_w},
                          logchf=gaussian_logchf)
    if gamma < gamma0 and not critical:
        params = stable_params_from_tails(alpha, *stable_tails)

        def stable_logchf(theta, x=1.0, y=1.0):
            return (x * y) * params.logchf(theta)

        return RegimeSpec(gamma0, gamma, (1.0 + gamma) / alpha, alpha, "StableSheet",
                          {**constants, "stable": params}, logchf=stable_logchf)
    extra, logchf = intermediate()
    return RegimeSpec(gamma0, gamma, h1 + gamma0 / 2.0, alpha, "Intermediate", {**constants, **extra},
                      logchf=logchf)
