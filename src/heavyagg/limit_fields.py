"""Laws of the limit fields: covariance and characteristic-function oracles.

Aggregated heavy-tailed traffic settles, after rescaling, into one of three
limit objects: a fractional Brownian sheet (Gaussian branch), an alpha-stable
Levy sheet (independent-increment branch), or the Telecom random field at the
critical growth exponent.  Each is stated by its law: the sheet's closed-form
covariance (``fbs_covariance``), the stable sheet's chf (``RegimeSpec.logchf``
on the heavy_tail module's stable parameters), and fixed-rule oracles for the
Telecom field's chf and variances, with an exact sampler of that field.  A
fourth field (the kappa-stable field driven by a product power measure on
amplitude and duration) is a counterexample oracle.

The Telecom field is the critical limit of unit rectangular shot noise, so
both its sampler and its chf run on the shot-noise module.  Cut at durations
below ``eps``, the field is integrated, centred rectangular shot noise, and
the sampler runs on the shot-noise path kernel; the variance of the dropped
durations is closed form, so tests can budget the truncation error
explicitly.  ``telecom_logchf`` is ``shot_noise.intermediate_logchf`` of the
unit-rectangle family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import shot_noise
from .heavy_tail import DegenerateDist, RegVaryingDist
from .pulses import RectIndep

__all__ = [
    "FbsSpec",
    "TelecomSpec",
    "fbs_covariance",
    "sample_telecom",
    "telecom_variance",
    "small_jump_variance",
    "left_pad_variance",
    "telecom_logchf",
    "telecom_field_logchf",
    "intermediate_kappa_field_chf",
]


# -- fractional Brownian sheet -----------------------------------------------------


def _check_point(x: float, y: float) -> None:
    if not (x >= 0 and y >= 0):
        raise ValueError(f"x and y must be nonnegative, got x={x}, y={y}")


@dataclass(frozen=True)
class FbsSpec:
    """Gaussian sheet with Hurst index h1 in the first coordinate, 1/2 in the second.

    Covariance: c_w**2 / 4 * (x^{2h1} + x'^{2h1} - |x-x'|^{2h1})
    * (y + y' - |y-y'|), so the variance at (1, 1) equals c_w**2.
    """

    h1: float
    c_w: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.h1 <= 1.0:
            raise ValueError(f"h1 must lie in (0, 1], got {self.h1}")
        if not 0.0 <= self.c_w < math.inf:
            raise ValueError("c_w must be nonnegative and finite")


def fbs_covariance(spec: FbsSpec, p, q) -> float:
    """Covariance of the sheet between points p = (x, y) and q = (x', y') of the quadrant."""
    (x1, y1), (x2, y2) = p, q
    _check_point(x1, y1)
    _check_point(x2, y2)
    g = 2.0 * spec.h1
    part_x = x1**g + x2**g - abs(x1 - x2) ** g
    part_y = y1 + y2 - abs(y1 - y2)
    return 0.25 * spec.c_w**2 * part_x * part_y


# -- Telecom random field -----------------------------------------------------------


@dataclass(frozen=True)
class TelecomSpec:
    """Compensated-Poisson field over sessions with power-tailed durations.

    The driving measure is du * dv * alpha * c * r^(-alpha-1) dr.  ``eps``
    truncates durations from below for simulation, the only cut the sampler
    makes; ``small_jump_variance`` gives the variance of the dropped
    durations in closed form.
    """

    alpha: float
    c: float = 1.0
    eps: float = 1e-3

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")

    @property
    def u_pad(self) -> float:
        """Left extent of the simulated arrival window: unbounded.

        Kept only because bench/workloads.py reads it; delete it with that use.
        """
        return math.inf


def telecom_variance(alpha: float, c: float, x: float, y: float = 1.0) -> float:
    """Var of the field at (x, y): 2 c x^(3-alpha) y / ((alpha-1)(2-alpha)(3-alpha))."""
    _check_point(x, y)
    return 2.0 * c * x ** (3.0 - alpha) * y / ((alpha - 1.0) * (2.0 - alpha) * (3.0 - alpha))


def small_jump_variance(spec: TelecomSpec, x: float, y: float = 1.0) -> float:
    """Variance carried by the discarded durations r < eps (closed form).

    The squared-overlap integral is r**2 * x - r**3/3 for r <= x and
    2*x**3/3 + (r - x)*x**2 beyond, integrated against the duration measure.
    This is the sampler's whole truncation budget; the field vanishes at
    x = 0, and so does the budget.
    """
    _check_point(x, y)
    if x == 0.0:
        return 0.0
    a, c, e = spec.alpha, spec.c, spec.eps
    lo = min(e, x)
    val = x * lo ** (2.0 - a) / (2.0 - a) - lo ** (3.0 - a) / (3.0 * (3.0 - a))
    if e > x:
        val += (2.0 * x**3 / 3.0 - x**3) * (x ** (-a) - e ** (-a)) / a
        val += x**2 * (x ** (1.0 - a) - e ** (1.0 - a)) / (a - 1.0)
    return y * a * c * val


def left_pad_variance(spec: TelecomSpec, x: float, y: float = 1.0) -> float:
    """Variance lost to a left cut of the arrival axis: 0, the sampler makes none.

    Kept only because bench/workloads.py calls it; delete it with that use.
    """
    return 0.0


def sample_telecom(
    spec: TelecomSpec,
    x_grid,
    y_max: float,
    rng: np.random.Generator,
    n_rep: int,
):
    """Field values at (x, y_max) for every x in x_grid; shape (n_rep, n_x).

    Cut at durations r > eps, the driving measure restricted to v <= y_max is
    stationary rect-indep shot noise: unit pulses at rate y_max * c *
    eps**-alpha with Pareto(alpha, eps) durations.  So the draws run through
    ``shot_noise.integrated_path_batch``: arrivals window by window, each
    session covering its window from its own start with no clip at the
    window's opening, and sessions alive at time 0 from the exact stationary
    (length-biased) law.  The sessions that share a window form a run, and
    their masses go in as one sum per run.  The window sums are cumulated
    over the grid and the exact mean x * rate * E R is subtracted.  The
    output is exact apart from the dropped durations r < eps, whose variance
    ``small_jump_variance`` gives.  All replicates go through one kernel
    call, whose memory is the output plus one pulse block's temporaries
    however many pulses it draws.
    """
    x = nm.strict_grid("x_grid", x_grid)
    if not 0 < y_max < math.inf:
        raise ValueError(f"y_max must be positive and finite, got {y_max}")

    pulse = RectIndep(DegenerateDist(1.0), RegVaryingDist(spec.alpha, spec.eps))
    src = shot_noise.ShotNoiseSource(pulse, rate=y_max * spec.c * spec.eps**-spec.alpha)
    out = np.cumsum(shot_noise.integrated_path_batch(src, x, rng, n_rep), axis=1)
    out -= x * src.mean_level()
    return out


# -- Telecom characteristic function ------------------------------------------------


def telecom_logchf(theta: float, x: float, alpha: float, c: float, mu: float = 1.0) -> complex:
    """log E exp(-i theta/mu J(x, 1)) for the Telecom field J of intensity constant c/mu.

    The critical-regime limits of cycle-structured inputs are phrased this
    way.  J is the critical limit of unit rectangles whose durations have
    tail constant c/mu, so this is ``shot_noise.intermediate_logchf`` of that
    family at -theta/mu, and raises RuntimeError as it does.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if not x > 0:
        raise ValueError("x must be positive")
    if not mu > 0:
        raise ValueError("mu must be positive")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if c == 0.0:
        return 0j
    pulse = RectIndep(DegenerateDist(1.0), RegVaryingDist(alpha, (c / mu) ** (1.0 / alpha)))
    return shot_noise.intermediate_logchf(pulse, -theta / mu, x)


def telecom_field_logchf(spec: TelecomSpec, theta: float, x: float, y: float = 1.0) -> complex:
    """log E exp(i theta J(x, y)) for the field itself (intensity spec.c)."""
    return y * telecom_logchf(-theta, x, spec.alpha, spec.c, 1.0)


# -- kappa-stable field over amplitude-and-duration power measures --------------------


# Gauss-Legendre nodes per duration panel of the kappa-field rule; the error
# estimate compares it with the rule of twice the order.  One point needs no
# panel (head and tail are closed form); at the two-point cases of the tests
# the two rules agree to 2e-10 or better, and a call takes about 5 ms.
KAPPA_NODES = 48
KAPPA_RTOL = 1e-8


def _overlap_pieces(r, order, kink_a, kink_b, xs, coef):
    """Per duration r: length of each arrival piece and the segment sums at its ends.

    Kink k sits at u = kink_a[k] - kink_b[k] * r and ``order`` (one row per
    r) lists the kinks left to right.  The overlap of (u, u + r) with (0, x_j)
    is min(x_j - u, r) for u >= 0 and min(x_j, u + r) for u < 0; both are
    formed from differences of the a parts first, so a kink at x_j - r keeps
    its distance r from x_j even where r is below the rounding of x_j.
    Returns lengths (n_r, n_kinks - 1) and sums s = coef @ overlap at the
    kinks, (n_r, n_kinks, n_segments).
    """
    ka, kb = kink_a[order][:, :, None], kink_b[order][:, :, None]
    rr = r[:, None, None]
    right = np.minimum((xs - ka) + kb * rr, rr)
    left = np.minimum(xs, ka + (1.0 - kb) * rr)
    overlap = np.maximum(np.where(ka - kb * rr >= 0.0, right, left), 0.0)
    lengths = np.maximum(np.diff(ka[:, :, 0], axis=1) - np.diff(kb[:, :, 0], axis=1) * r[:, None], 0.0)
    return lengths, overlap @ coef.T


def _power_mean(lo, hi, kappa):
    """(hi**(kappa+1) - lo**(kappa+1)) / ((kappa+1) (hi - lo)) for lo, hi >= 0, without cancellation."""
    top = np.maximum(lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log(np.minimum(lo, hi) / top)
        ratio = np.expm1((kappa + 1.0) * log_t) / ((kappa + 1.0) * np.expm1(log_t))
        return np.where(top > 0.0, top**kappa * np.where(log_t == 0.0, 1.0, ratio), 0.0)


def _positive_power_integral(lengths, s, kappa):
    """Integral of s_+**kappa over arrival u, summed over the linear pieces.

    On a piece of length L where s runs linearly from s0 to s1 it is
    L * ((s1)_+**(kappa+1) - (s0)_+**(kappa+1)) / ((kappa+1) (s1 - s0)); a
    piece whose ends share a sign takes the cancellation-free power mean.
    The negative part is the same integral of -s.  Shapes: lengths (n_r,
    n_pieces), s (n_r, n_pieces + 1, n_seg); result (n_r, n_seg).
    """
    s0, s1 = s[:, :-1], s[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = np.maximum(s0, s1) ** (kappa + 1.0) / ((kappa + 1.0) * np.abs(s1 - s0))
        part = np.where(s0 * s1 < 0.0, crossing, _power_mean(np.maximum(s0, 0.0), np.maximum(s1, 0.0), kappa))
    return np.sum(lengths[:, :, None] * part, axis=1)


def _kappa_field_integrals(thetas, xs, ys, kappa, rho, n):
    """(I_plus, I_minus): the duration integrals of the positive and negative parts.

    The arrival integral is exact for every duration r; r runs over
    Gauss-Legendre panels in r**(kappa - rho) split where the kink order
    changes, and the head below the first break b1 and the tail beyond x_max
    are closed form.
    """
    x_max = float(np.max(xs))
    levels = np.unique(ys)
    heights = np.diff(levels, prepend=0.0)
    coef = np.where(ys[None, :] >= levels[:, None], thetas[None, :], 0.0)  # (n_seg, n_points)
    # kinks of the arrival axis as a - b * r: -r, 0, every x_j and every x_j - r
    kink_a = np.concatenate(([0.0, 0.0], xs, xs))
    kink_b = np.concatenate(([1.0, 0.0], np.zeros(xs.size), np.ones(xs.size)))
    gaps = (xs[:, None] - xs[None, :]).ravel()
    breaks = np.unique(np.concatenate((xs, gaps[gaps > 0.0])))

    def integrate_panels(r, weights, mids):
        order = np.argsort(kink_a[None, :] - kink_b[None, :] * mids[:, None], axis=1, kind="stable")
        order = np.repeat(order, r.shape[1], axis=0)
        lengths, s = _overlap_pieces(r.ravel(), order, kink_a, kink_b, xs, coef)
        w = weights.ravel()[:, None] * heights[None, :]
        return (np.sum(w * _positive_power_integral(lengths, s, kappa)),
                np.sum(w * _positive_power_integral(lengths, -s, kappa)))

    # head (0, b1): every overlap at a kink is 0 or r, so g(r) = r**kappa (A + B r)
    # exactly; two points fix A and B, and the head integral is closed form
    b1, gap = breaks[0], kappa - rho
    r1, r2 = b1 / 3.0, 2.0 * b1 / 3.0
    c1, c2 = b1**gap / gap, b1 ** (gap + 1.0) / (gap + 1.0)
    slope_w = (c2 - r1 * c1) / (r2 - r1)
    head = integrate_panels(np.array([[r1, r2]]), np.array([[(c1 - slope_w) / r1**kappa, slope_w / r2**kappa]]),
                            np.array([0.5 * b1]))
    # panels run in tau = r**(kappa - rho), where the weight r**(-rho-1) times
    # the r**kappa growth of g is flat: a panel starting near r = 0 then
    # needs no more nodes than any other
    tau, wtau = nm.gauss_legendre_panels(breaks**gap, n)
    r = tau ** (1.0 / gap)
    body = integrate_panels(r, wtau / gap * r**-kappa, 0.5 * (breaks[:-1] + breaks[1:]))
    # r > x_max: g(r) = g(x_max) + (r - x_max) * sum_seg height * |S|**kappa
    edge = integrate_panels(np.array([[x_max]]), np.array([[x_max**-rho / rho]]), np.array([2.0 * x_max]))
    total = coef @ xs
    slope = x_max ** (1.0 - rho) / (rho * (rho - 1.0)) * heights * np.abs(total) ** kappa
    tail = (np.sum(slope[total > 0.0]), np.sum(slope[total < 0.0]))
    return tuple(h + b + e + tl for h, b, e, tl in zip(head, body, edge, tail))


def _kappa_field_logchf(theta_vec, points, kappa: float, rho: float, c_nu: float) -> tuple[complex, float]:
    """(value, err) of ``intermediate_kappa_field_chf``; err = |I_n - I_2n| plus a rounding floor."""
    if not 1.0 < rho < kappa < 2.0:
        raise ValueError(f"need 1 < rho < kappa < 2, got rho={rho}, kappa={kappa}")
    if not c_nu > 0:
        raise ValueError("c_nu must be positive")
    thetas = np.array([float(t) for t in theta_vec])
    pts = np.array([(float(px), float(py)) for px, py in points]).reshape(-1, 2)
    if thetas.size != pts.shape[0]:
        raise ValueError("theta_vec and points must have equal length")
    if np.any(pts <= 0):
        raise ValueError("points must have positive coordinates")
    if np.all(thetas == 0.0):
        return 0j, 0.0

    d_plus = c_nu * math.gamma(2.0 - kappa) / ((kappa - 1.0) * kappa) * cmath.exp(-1j * math.pi * kappa / 2.0)
    d_minus = d_plus.conjugate()
    coarse, fine = (_kappa_field_integrals(thetas, pts[:, 0], pts[:, 1], kappa, rho, k * KAPPA_NODES)
                    for k in (1, 2))
    value = fine[0] * d_plus + fine[1] * d_minus
    err = abs((coarse[0] - fine[0]) * d_plus + (coarse[1] - fine[1]) * d_minus)
    err += 64.0 * np.finfo(float).eps * abs(d_plus) * (fine[0] + fine[1])
    return complex(value), float(err)


def intermediate_kappa_field_chf(theta_vec, points, kappa: float, rho: float, c_nu: float) -> complex:
    """Joint log ch.f. of the kappa-stable field at finitely many points.

    The field integrates rectangular sessions with amplitude a and duration r
    against a measure with density c_nu * a^(-kappa-1) * r^(-rho-1); the
    amplitude integral is closed form (one-sided kappa-stable coefficients
    d_plus and d_minus = conj(d_plus)), and the vertical coordinate reduces
    to a sum over segments of the sorted y-levels.  For a fixed duration r
    the weighted overlap s(u) = sum_j theta_j overlap_j(u, r) is piecewise
    linear in the arrival u with kinks at -r, 0, x_j and x_j - r, so the
    arrival integral of |s|**kappa is summed exactly piece by piece.  The
    duration integral runs over Gauss-Legendre panels in r**(kappa - rho),
    split at every x_j and every positive x_j - x_k (where the kink order
    changes).  Below the first break b1 every overlap at a kink is 0 or r, so
    the arrival integral is r**kappa times an affine function of r and the
    head (0, b1) is closed form; beyond x_max the arrival integral is affine
    in r, so the tail is closed form too.  The rule runs at ``KAPPA_NODES``
    and twice that; a RuntimeError reports a difference above ``KAPPA_RTOL``
    relative.
    """
    value, err = _kappa_field_logchf(theta_vec, points, kappa, rho, c_nu)
    if not err <= KAPPA_RTOL * abs(value):
        raise RuntimeError(f"kappa-field rule did not converge (error bound {err:.2e} for {value:.6e})")
    return value
