"""Careful characteristic-function integrands and the fixed rules of the oracles.

Psi(z) = e^{iz} - 1 - iz and its ramp average sit inside integrals against
heavy-tailed Levy measures, whose weight amplifies tiny z by many orders of
magnitude; ``psi_array`` and ``psi_ramp_array`` stay accurate down to z = 0,
where naive forms like ``cos(z) - 1`` round to zero.  ``gauss_legendre_panels``
(nodes cached per order), ``tanh_sinh_unit`` and ``levy_duration_rule`` are
the fixed rules; ``checked_quad`` is an adaptive ``quad`` that keeps its error
estimate; ``strict_grid`` is the one validator of time and coordinate grids.

Importing the package loads numpy alone: scipy is imported inside the few
functions that need it (``checked_quad`` here), so it costs import time and
memory only in a process that calls one of them.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "psi_array",
    "psi_ramp_array",
    "strict_grid",
    "gauss_legendre_panels",
    "tanh_sinh_unit",
    "levy_duration_rule",
    "checked_quad",
]


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on (-1, 1)."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def gauss_legendre_panels(breaks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel.

    Panel i runs between breaks[i] and breaks[i + 1]; both results have
    shape (panels, n), so summing weights * f(nodes) integrates f over
    (breaks[0], breaks[-1]) with every break as a panel edge.
    """
    t, w = _legendre(n)
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
    relative precision; |pi sinh t| <= 384 keeps exp within range.
    """
    t = np.linspace(-TANH_SINH_T_MAX, TANH_SINH_T_MAX, 2 * n + 1)
    e = np.pi * np.sinh(t)
    s = 1.0 / (1.0 + np.exp(-e))
    w = (t[1] - t[0]) * np.pi * np.cosh(t) * s * (1.0 / (1.0 + np.exp(e)))
    return s, w


def levy_duration_rule(rho: float, c: float, b: float, power: float, n_head: int, n_tail: int):
    """Nodes r and weights w with w @ f(r) ~ int_0^inf f(r) rho c r**(-rho-1) dr.

    The first n_head nodes are Gauss-Legendre in q on the head (0, b) with
    r = q**power; power = 2 / (k - rho) makes the integrand smooth in q when
    f vanishes like r**k.  The other 2 n_tail + 1 are tanh-sinh in s on the
    tail, r = b * s**(-1/rho), where the Levy weight is uniform in s.
    """
    q, wq = gauss_legendre_panels((0.0, b ** (1.0 / power)), n_head)
    r_head = q[0] ** power
    w_head = wq[0] * power * q[0] ** (power - 1.0) * rho * c * r_head ** (-1.0 - rho)
    s, ws = tanh_sinh_unit(n_tail)
    return np.concatenate((r_head, b * s ** (-1.0 / rho))), np.concatenate((w_head, ws * c * b**-rho))


def checked_quad(f, lo: float, hi: float, what: str) -> float:
    """Adaptive ``quad`` of f over (lo, hi); RuntimeError above an error bound of max(1e-8, 1e-6 |value|).

    quad is asked for the same absolute bound: with its default of 1.49e-8
    it would stop on values below 1.5e-2 whose error lies between the two.
    """
    from scipy import integrate

    val, err = integrate.quad(f, lo, hi, limit=400, epsabs=1e-8)
    if err > max(1e-8, 1e-6 * abs(val)):
        raise RuntimeError(f"{what} quadrature did not converge (error bound {err:.2e} for {val:.6e})")
    return val


def strict_grid(name: str, grid) -> np.ndarray:
    """``grid`` as a float array; raises unless it is a finite, positive,
    strictly increasing, nonempty 1-d array (the message names ``name``)."""
    arr = np.asarray(grid, dtype=float)
    if (arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)) or arr[0] <= 0
            or np.any(np.diff(arr) <= 0)):
        raise ValueError(f"{name} must be a finite, positive, strictly increasing, nonempty 1-d array")
    return arr


def psi_array(z) -> np.ndarray:
    """Psi(z) = e^{iz} - 1 - iz elementwise, as expm1(iz) - iz.

    Below |z| = 1e-3 it runs on its Taylor series sum_{n>=2} (iz)**n / n!
    up to n = 7.  For real z, expm1(iz) is -2 sin(z/2)**2 + i sin z, so no
    part cancels there.  Complex z (the rotated duration contour of
    rect-coupled pulses) must keep Im z >= 0.
    """
    iz = 1j * np.atleast_1d(z)
    out = np.expm1(iz) - iz
    small = np.abs(iz) < 1e-3
    w = iz[small]
    out[small] = w * w / 2.0 * (1.0 + w / 3.0 * (1.0 + w / 4.0 * (1.0 + w / 5.0 * (1.0 + w / 6.0 * (1.0 + w / 7.0)))))
    return out.reshape(np.shape(z))


def psi_ramp_array(z) -> np.ndarray:
    """The ramp average int_0^1 Psi(z s) ds = (Psi(z) + z**2/2) / (iz) elementwise.

    Below |z| = 1e-3 it runs on its series sum_{n>=2} (iz)**n / (n+1)! up to
    n = 7, as in ``psi_array``, which also gives 0 at z = 0.
    """
    iz = 1j * np.atleast_1d(z)
    small = np.abs(iz) < 1e-3
    big = np.where(small, 1.0, iz)
    out = (np.expm1(big) - big - 0.5 * big * big) / big
    w = iz[small]
    out[small] = w * w / 6.0 * (1.0 + w / 4.0 * (1.0 + w / 5.0 * (1.0 + w / 6.0 * (1.0 + w / 7.0 * (1.0 + w / 8.0)))))
    return out.reshape(np.shape(z))
