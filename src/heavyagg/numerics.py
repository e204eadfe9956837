"""Numerically careful helpers for characteristic-function integrands.

The compensated exponential e^{iz} - 1 - iz and its parts appear inside
integrals against heavy-tailed Levy measures, where the integration weight
amplifies the region of tiny z by many orders of magnitude.  Naive forms like
``cos(z) - 1`` round to zero there and bias the integral; these helpers stay
accurate down to z = 0.

``strict_grid`` is the one validator of time and coordinate grids.
``gauss_legendre_panels`` and ``tanh_sinh_unit`` are the fixed rules behind
the vectorised oracles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "cos_minus_one",
    "sin_minus_z",
    "one_minus_cos_minus_half_sq",
    "psi",
    "psi_array",
    "strict_grid",
    "gauss_legendre_panels",
    "tanh_sinh_unit",
]


def gauss_legendre_panels(breaks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel.

    Panel i runs between breaks[i] and breaks[i + 1]; both results have
    shape (panels, n), so summing weights * f(nodes) integrates f over
    (breaks[0], breaks[-1]) with every break as a panel edge.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    b = np.asarray(breaks, dtype=float)
    half = 0.5 * (b[1:] - b[:-1])[:, None]
    return b[:-1, None] + half * (t + 1.0), half * w


# |t| <= 5.5 puts the outermost tanh-sinh nodes within e**-384 of the ends
# of (0, 1)
TANH_SINH_T_MAX = 5.5


def tanh_sinh_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 2n+1-point tanh-sinh rule on (0, 1).

    The double-exponential map s = (1 + tanh(pi/2 sinh t)) / 2 (Takahasi and
    Mori, 1974) with step TANH_SINH_T_MAX / n; it keeps its rate of
    convergence for integrands with algebraic endpoint singularities.  The
    nodes come from the logistic function, so those near 0 keep their full
    relative precision.
    """
    t = np.linspace(-TANH_SINH_T_MAX, TANH_SINH_T_MAX, 2 * n + 1)
    e = np.pi * np.sinh(t)
    s = special.expit(e)
    w = (t[1] - t[0]) * np.pi * np.cosh(t) * s * special.expit(-e)
    return s, w


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


def psi_array(z: np.ndarray) -> np.ndarray:
    """``psi`` elementwise on a real array, with the same series below 1e-3."""
    half = np.sin(0.5 * z)
    z2 = z * z
    series = -z * z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0))
    return -2.0 * half * half + 1j * np.where(np.abs(z) < 1e-3, series, np.sin(z) - z)
