"""Numerically careful helpers for characteristic-function integrands.

The compensated exponential e^{iz} - 1 - iz and its parts appear inside
integrals against heavy-tailed Levy measures, where the integration weight
amplifies the region of tiny z by many orders of magnitude.  Naive forms like
``cos(z) - 1`` round to zero there and bias the integral; these helpers stay
accurate down to z = 0.

``strict_grid`` is the one validator of time and coordinate grids.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cos_minus_one", "sin_minus_z", "one_minus_cos_minus_half_sq", "psi", "strict_grid"]


def strict_grid(name: str, grid) -> np.ndarray:
    """``grid`` as a float array; raises unless it is a finite, positive,
    strictly increasing, nonempty 1-d array (the message names ``name``)."""
    arr = np.asarray(grid, dtype=float)
    if (arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)) or arr[0] <= 0
            or np.any(np.diff(arr) <= 0)):
        raise ValueError(f"{name} must be a finite, positive, strictly increasing, nonempty 1-d array")
    return arr


def cos_minus_one(z: float) -> float:
    """cos(z) - 1 without cancellation, via -2 sin^2(z/2)."""
    s = math.sin(0.5 * z)
    return -2.0 * s * s


def sin_minus_z(z: float) -> float:
    """sin(z) - z, series below 1e-3 (next omitted term is ~z^9/362880)."""
    if abs(z) < 1e-3:
        z2 = z * z
        return -z * z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0))
    return math.sin(z) - z


def one_minus_cos_minus_half_sq(z: float) -> float:
    """(1 - cos z) - z^2/2, series below 1e-3."""
    if abs(z) < 1e-3:
        z2 = z * z
        return -z2 * z2 / 24.0 * (1.0 - z2 / 30.0 * (1.0 - z2 / 56.0))
    return -cos_minus_one(z) - 0.5 * z * z


def psi(z: float) -> complex:
    """The compensated oscillator e^{iz} - 1 - iz for real z."""
    return complex(cos_minus_one(z), sin_minus_z(z))
