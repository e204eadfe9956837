"""Exact samplers and characteristic-function oracles for the limit fields.

Aggregated heavy-tailed traffic settles, after rescaling, into one of three
limit objects: a fractional Brownian sheet (Gaussian branch), an alpha-stable
Levy sheet (independent-increment branch), or the Telecom random field at the
critical growth exponent.  This module provides exact finite-dimensional
samplers for all three, closed-form or quadrature oracles for their
characteristic functions and variances, a fourth field (the kappa-stable
field driven by a product power measure on amplitude and duration) used as a
counterexample oracle, and a checker for the small/large-scale asymptotic
self-similarity of the Telecom field.

Sampling the Telecom field truncates durations below ``eps`` and pads the
arrival coordinate a finite distance to the left; both cuts carry closed-form
variance bounds so tests can budget the truncation error explicitly.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import numerics as nm
from .heavy_tail import StableParams, sample_stable, stable_params_from_tails

__all__ = [
    "FbsSpec",
    "TelecomSpec",
    "SsReport",
    "fbs_covariance",
    "sample_fbs_grid",
    "sample_stable_sheet",
    "sample_telecom",
    "telecom_variance",
    "small_jump_variance",
    "left_pad_variance",
    "telecom_logchf",
    "telecom_field_logchf",
    "intermediate_kappa_field_chf",
    "asymptotic_ss_check",
    "hurst_range_ok",
    "DEFAULT_THETA_GRID",
]


def hurst_range_ok(gamma: float, h: float) -> bool:
    """True when the scaling exponent H is admissible at source growth gamma.

    Every limit attainable by aggregation satisfies 0 <= H <= 1 + gamma and
    0 <= H - gamma/2 <= 1 (the count direction carries exactly gamma/2 in the
    Gaussian regime and at most gamma overall).
    """
    return 0.0 <= h <= 1.0 + gamma and 0.0 <= h - 0.5 * gamma <= 1.0


DEFAULT_THETA_GRID = (-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 4.0)


# -- fractional Brownian sheet -----------------------------------------------------


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
        if not self.c_w >= 0.0:
            raise ValueError("c_w must be nonnegative")


def fbs_covariance(spec: FbsSpec, p, q) -> float:
    """Covariance of the sheet between points p = (x, y) and q = (x', y')."""
    (x1, y1), (x2, y2) = p, q
    g = 2.0 * spec.h1
    part_x = x1**g + x2**g - abs(x1 - x2) ** g
    part_y = y1 + y2 - abs(y1 - y2)
    return 0.25 * spec.c_w**2 * part_x * part_y


def _fbm_cholesky(h1: float, x: np.ndarray) -> np.ndarray:
    g = 2.0 * h1
    cov = 0.5 * (x[:, None] ** g + x[None, :] ** g - np.abs(x[:, None] - x[None, :]) ** g)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diag(cov)))
        warnings.warn(
            f"covariance factorization needed a diagonal jitter of {jitter:.3e}",
            stacklevel=3,
        )
        return np.linalg.cholesky(cov + jitter * np.eye(x.size))


def sample_fbs_grid(spec: FbsSpec, x_grid, y_grid, rng: np.random.Generator, n_rep: int | None = None):
    """Draw the sheet on the product grid; shape (n_rep, n_x, n_y).

    The x-covariance matrix is factorized once; the y-direction uses exact
    independent Brownian increments between consecutive grid levels, so the
    product-covariance structure holds exactly on the grid.
    """
    x = nm.strict_grid("x_grid", x_grid)
    y = nm.strict_grid("y_grid", y_grid)
    reps = 1 if n_rep is None else int(n_rep)
    chol = _fbm_cholesky(spec.h1, x)
    dy = np.diff(y, prepend=0.0)
    noise = rng.standard_normal((reps, y.size, x.size))
    correlated = noise @ chol.T
    field = spec.c_w * np.cumsum(correlated * np.sqrt(dy)[None, :, None], axis=1)
    field = np.swapaxes(field, 1, 2)
    return field[0] if n_rep is None else field


# -- stable Levy sheet --------------------------------------------------------------


def sample_stable_sheet(params: StableParams, x_grid, y_grid, rng: np.random.Generator, n_rep: int | None = None):
    """Draw the independently scattered stable sheet on the product grid.

    Cell increments over the rectangles between consecutive grid lines (with
    an implicit 0 line on each axis) are independent stable draws with scale
    multiplied by (cell area)^(1/alpha); the field is their cumulative 2-D sum.
    """
    x = nm.strict_grid("x_grid", x_grid)
    y = nm.strict_grid("y_grid", y_grid)
    reps = 1 if n_rep is None else int(n_rep)
    dx = np.diff(x, prepend=0.0)
    dy = np.diff(y, prepend=0.0)
    area = dx[:, None] * dy[None, :]
    cells = sample_stable(params, rng, size=reps * x.size * y.size).reshape(reps, x.size, y.size)
    cells = cells * area[None, :, :] ** (1.0 / params.alpha)
    field = np.cumsum(np.cumsum(cells, axis=1), axis=2)
    return field[0] if n_rep is None else field


# -- Telecom random field -----------------------------------------------------------


@dataclass(frozen=True)
class TelecomSpec:
    """Compensated-Poisson field over sessions with power-tailed durations.

    The driving measure is du * dv * alpha * c * r^(-alpha-1) dr.  ``eps``
    truncates durations from below for simulation; ``pad_tail_prob`` sets the
    left padding of the arrival coordinate at the (1 - pad_tail_prob) quantile
    of the truncated duration law.  ``var_tol``, when set, makes the sampler
    warn if the combined truncation variance bound at the requested window
    exceeds it.
    """

    alpha: float
    c: float = 1.0
    eps: float = 1e-3
    pad_tail_prob: float = 1e-6
    var_tol: float | None = None

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.pad_tail_prob < 1.0:
            raise ValueError("pad_tail_prob must lie in (0, 1)")

    @property
    def u_pad(self) -> float:
        """Left extent of the simulated arrival window."""
        return self.eps * self.pad_tail_prob ** (-1.0 / self.alpha)

    def hurst(self) -> float:
        return (3.0 - self.alpha) / 2.0


def telecom_variance(alpha: float, c: float, x: float, y: float = 1.0) -> float:
    """Var of the field at (x, y): 2 c x^(3-alpha) y / ((alpha-1)(2-alpha)(3-alpha))."""
    return 2.0 * c * x ** (3.0 - alpha) * y / ((alpha - 1.0) * (2.0 - alpha) * (3.0 - alpha))


def small_jump_variance(spec: TelecomSpec, x: float, y: float = 1.0) -> float:
    """Variance carried by the discarded durations r < eps (closed form).

    The squared-overlap integral is r**2 * x - r**3/3 for r <= x and
    2*x**3/3 + (r - x)*x**2 beyond, integrated against the duration measure.
    """
    a, c, e = spec.alpha, spec.c, spec.eps
    lo = min(e, x)
    val = x * lo ** (2.0 - a) / (2.0 - a) - lo ** (3.0 - a) / (3.0 * (3.0 - a))
    if e > x:
        val += (2.0 * x**3 / 3.0 - x**3) * (x ** (-a) - e ** (-a)) / a
        val += x**2 * (x ** (1.0 - a) - e ** (1.0 - a)) / (a - 1.0)
    return y * a * c * val


def left_pad_variance(spec: TelecomSpec, x: float, y: float = 1.0) -> float:
    """Variance of the omitted points left of the arrival padding."""
    a, c, pad = spec.alpha, spec.c, spec.u_pad

    def head(r: float) -> float:
        s = r - pad
        return (s**3 / 3.0) * r ** (-a - 1.0)

    h, _ = integrate.quad(head, pad, pad + x, limit=200)
    # tail: integral of (x^2 (r - pad) - 2 x^3 / 3) r^(-a-1) over (pad + x, inf)
    t = x**2 * (pad + x) ** (1.0 - a) / (a - 1.0) - (x**2 * pad + 2.0 * x**3 / 3.0) * (pad + x) ** (-a) / a
    return y * a * c * (h + t)


def _left_pad_mean_correction(alpha: float, pad: float, x: float) -> float:
    """Integral over r > pad of the overlap mass lost to the padding."""

    def head(r: float) -> float:
        return 0.5 * (r - pad) ** 2 * r ** (-alpha - 1.0)

    h, _ = integrate.quad(head, pad, pad + x, limit=200)
    t = x * (pad + x) ** (1.0 - alpha) / (alpha - 1.0) - (x * pad + 0.5 * x * x) * (pad + x) ** (-alpha) / alpha
    return h + t


def _telecom_compensator(spec: TelecomSpec, x: np.ndarray, y_max: float) -> np.ndarray:
    a, c = spec.alpha, spec.c
    main = a * c / (a - 1.0) * spec.eps ** (1.0 - a) * x
    corr = np.array([_left_pad_mean_correction(a, spec.u_pad, float(xj)) for xj in x])
    return y_max * (main - a * c * corr)


# Poisson points times x values per vectorised pass of sample_telecom; whole
# replicates are batched up to this size
TELECOM_CHUNK_POINTS = 4_000_000


def sample_telecom(
    spec: TelecomSpec,
    x_grid,
    y_max: float,
    rng: np.random.Generator,
    n_rep: int | None = None,
):
    """Field values at (x, y_max) for every x in x_grid; shape (n_rep, n_x).

    Points (u, r) of the driving Poisson measure are instantiated only where
    they can overlap the window, i.e. u in (-(r ∧ pad), x_max]; points of the
    padded domain farther left contribute zero overlap and zero compensator
    mass, so skipping them changes nothing in law.  The duration coordinate is
    drawn from the exact length-weighted mixture that this restriction induces
    and the compensator (the expected sum over the simulated domain) is
    subtracted in closed form, so the output is exact apart from the
    documented eps- and padding-truncations.
    """
    x = nm.strict_grid("x_grid", x_grid)
    if not y_max > 0:
        raise ValueError("y_max must be positive")
    reps = 1 if n_rep is None else int(n_rep)
    a, c, eps = spec.alpha, spec.c, spec.eps
    pad = spec.u_pad
    x_max = float(x[-1])

    if spec.var_tol is not None:
        bound = small_jump_variance(spec, x_max, y_max) + left_pad_variance(spec, x_max, y_max)
        if bound > spec.var_tol:
            warnings.warn(
                f"truncation variance bound {bound:.3e} exceeds var_tol={spec.var_tol:.3e}; decrease eps",
                stacklevel=2,
            )

    # mixture weights of the duration law tilted by the u-window length x_max + (r ∧ pad)
    w_flat = c * x_max * eps**-a
    w_ramp = c * a / (a - 1.0) * (eps ** (1.0 - a) - pad ** (1.0 - a))
    w_plateau = c * pad ** (1.0 - a)
    lam = y_max * (w_flat + w_ramp + w_plateau)

    comp = _telecom_compensator(spec, x, y_max)
    out = np.empty((reps, x.size))
    out[:] = -comp[None, :]
    counts = rng.poisson(lam, size=reps)

    start = 0
    while start < reps:
        stop = start
        total = 0
        while stop < reps and (stop == start or (total + counts[stop]) * x.size <= TELECOM_CHUNK_POINTS):
            total += int(counts[stop])
            stop += 1
        n_pts = int(np.sum(counts[start:stop]))
        if n_pts:
            rep_idx = np.repeat(np.arange(stop - start), counts[start:stop])
            pick = rng.random(n_pts) * (w_flat + w_ramp + w_plateau)
            r = np.empty(n_pts)
            is_flat = pick < w_flat
            is_ramp = ~is_flat & (pick < w_flat + w_ramp)
            is_plat = ~is_flat & ~is_ramp
            r[is_flat] = eps * (1.0 - rng.random(int(is_flat.sum()))) ** (-1.0 / a)
            u01 = rng.random(int(is_ramp.sum()))
            r[is_ramp] = (eps ** (1.0 - a) - u01 * (eps ** (1.0 - a) - pad ** (1.0 - a))) ** (1.0 / (1.0 - a))
            r[is_plat] = pad * (1.0 - rng.random(int(is_plat.sum()))) ** (-1.0 / a)
            lo = -np.minimum(r, pad)
            u = lo + rng.random(n_pts) * (x_max - lo)
            upper = u + r
            for j, xj in enumerate(x):
                contrib = np.clip(upper, 0.0, xj) - np.clip(u, 0.0, xj)
                out[start:stop, j] += np.bincount(rep_idx, weights=contrib, minlength=stop - start)
        start = stop
    return out[0] if n_rep is None else out


# -- Telecom characteristic function ------------------------------------------------


def telecom_logchf(theta: float, x: float, alpha: float, c: float, mu: float = 1.0) -> complex:
    """Two-term quadrature of the Telecom log characteristic function.

    Value of c/mu * int_0^inf Psi(-theta/mu * (x ∧ r)) r^-alpha dr
    - i*theta*c/mu^2 * int_0^x (e^{-i*theta*r/mu} - 1)(x - r) r^-alpha dr
    with Psi(z) = e^{iz} - 1 - iz.  Equals the log ch.f. at theta of
    -(1/mu) J(x, 1) where J is the field with intensity constant c/mu, which
    is how the critical-regime limits of cycle-structured inputs are phrased.
    Compensated trig forms keep the r -> 0 region exact; the second integrand
    flattens its r^(1-alpha) endpoint in a square-root substitution.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if not x > 0:
        raise ValueError("x must be positive")
    if not mu > 0:
        raise ValueError("mu must be positive")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if theta == 0.0 or c == 0.0:
        return 0j
    phi = -theta / mu

    opts = {"limit": 300, "epsabs": 1e-14, "epsrel": 1e-10}
    re1, er1 = integrate.quad(lambda r: nm.cos_minus_one(phi * r) * r**-alpha, 0.0, x, **opts)
    im1, ei1 = integrate.quad(lambda r: nm.sin_minus_z(phi * r) * r**-alpha, 0.0, x, **opts)
    term1 = (c / mu) * (complex(re1, im1) + nm.psi(phi * x) * x ** (1.0 - alpha) / (alpha - 1.0))

    # substitution r = q**n flattens the r^(1-alpha) endpoint of the sine part
    n_sub = max(2.0, 2.0 / (2.0 - alpha))

    def ramp_re(q: float) -> float:
        r = q**n_sub
        return n_sub * q ** (n_sub - 1.0) * nm.cos_minus_one(phi * r) * (x - r) * r**-alpha

    def ramp_im(q: float) -> float:
        r = q**n_sub
        return n_sub * q ** (n_sub - 1.0) * math.sin(phi * r) * (x - r) * r**-alpha

    sx = x ** (1.0 / n_sub)
    re2, er2 = integrate.quad(ramp_re, 0.0, sx, **opts)
    im2, ei2 = integrate.quad(ramp_im, 0.0, sx, **opts)
    term2 = -1j * theta * (c / mu**2) * complex(re2, im2)

    val = term1 + term2
    err = (c / mu) * (er1 + ei1) + abs(theta) * (c / mu**2) * (er2 + ei2)
    if err > 1e-7 * abs(val) + 1e-13:
        warnings.warn(f"quadrature error estimate {err:.3e} for value {val:.6e}", stacklevel=2)
    return val


def telecom_field_logchf(spec: TelecomSpec, theta: float, x: float, y: float = 1.0) -> complex:
    """log E exp(i theta J(x, y)) for the field itself (intensity spec.c)."""
    if theta == 0.0:
        return 0j
    return y * telecom_logchf(-theta, x, spec.alpha, spec.c, 1.0)


# -- kappa-stable field over amplitude-and-duration power measures --------------------


def intermediate_kappa_field_chf(theta_vec, points, kappa: float, rho: float, c_nu: float) -> complex:
    """Joint log ch.f. of the kappa-stable field at finitely many points.

    The field integrates rectangular sessions with amplitude a and duration r
    against a measure with density c_nu * a^(-kappa-1) * r^(-rho-1); the
    amplitude integral is closed form (one-sided kappa-stable coefficients),
    leaving a (u, v, r) integral evaluated here by nested quadrature: the
    vertical coordinate reduces to a sum over segments of the sorted y-levels,
    the arrival coordinate is adaptive with the overlap kinks supplied, and
    the duration integral splits at the x-breaks with a power substitution
    flattening the head singularity r^(kappa-rho-1).
    """
    if not 1.0 < rho < kappa < 2.0:
        raise ValueError(f"need 1 < rho < kappa < 2, got rho={rho}, kappa={kappa}")
    if not c_nu > 0:
        raise ValueError("c_nu must be positive")
    thetas = [float(t) for t in theta_vec]
    pts = [(float(px), float(py)) for px, py in points]
    if len(thetas) != len(pts):
        raise ValueError("theta_vec and points must have equal length")
    if any(px <= 0 or py <= 0 for px, py in pts):
        raise ValueError("points must have positive coordinates")
    if all(t == 0.0 for t in thetas):
        return 0j

    d_plus = c_nu * math.gamma(2.0 - kappa) / ((kappa - 1.0) * kappa) * cmath.exp(-1j * math.pi * kappa / 2.0)
    d_minus = d_plus.conjugate()

    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    levels = np.unique(ys)
    segments = []  # (height, coefficient vector over active points)
    prev = 0.0
    for b in levels:
        active = ys >= b
        segments.append((b - prev, np.asarray(thetas)[active], xs[active]))
        prev = b
    x_max = float(np.max(xs))

    def g_of_r(r: float, part: str) -> float:
        kink_set = {0.0}
        for xj in xs:
            kink_set.add(xj)
            kink_set.add(xj - r)
        kinks = sorted(k for k in kink_set if -r < k < x_max)

        def f(u: float) -> float:
            total = 0j
            base_lo = max(u, 0.0)
            for height, th, xv in segments:
                s = 0.0
                for t_j, x_j in zip(th, xv):
                    s += t_j * max(0.0, min(x_j, u + r) - base_lo)
                if s > 0.0:
                    total += height * s**kappa * d_plus
                elif s < 0.0:
                    total += height * (-s) ** kappa * d_minus
            return total.real if part == "re" else total.imag

        val, _ = integrate.quad(f, -r, x_max, points=kinks, limit=200)
        return val

    m = 2.0 / (kappa - rho)

    def component(part: str) -> float:
        def head(q: float) -> float:
            r = q**m
            return m * q ** (m * (-rho) - 1.0) * g_of_r(r, part)

        q_kinks = sorted({float(xj) ** (1.0 / m) for xj in xs if xj < x_max})
        h, _ = integrate.quad(head, 0.0, x_max ** (1.0 / m), points=q_kinks or None, limit=100)

        def tail(r: float) -> float:
            return g_of_r(r, part) * r ** (-1.0 - rho)

        t, _ = integrate.quad(tail, x_max, np.inf, limit=100)
        return h + t

    return complex(component("re"), component("im"))


# -- asymptotic self-similarity of the Telecom field ----------------------------------


@dataclass(frozen=True)
class SsReport:
    """Ladder of distances between the rescaled field and its scaling limit.

    ``exact_dist`` is deterministic (quadrature ch.f. against the limit
    ch.f.); ``empirical_dist`` is the Monte Carlo counterpart with standard
    errors.  ``sampler_consistent`` states whether the empirical ch.f. stayed
    within three standard errors (plus the truncation allowance) of the exact
    one at every rung; non-monotone empirical ladders are flagged rather than
    failed, since the deterministic ladder is the assertable object.
    """

    direction: str
    lambdas: tuple
    theta_grid: tuple
    exact_dist: tuple
    empirical_dist: tuple
    empirical_se: tuple
    exact_monotone: bool
    sampler_consistent: bool
    flags: tuple


def asymptotic_ss_check(
    spec: TelecomSpec,
    direction: str,
    lambdas,
    n_rep: int,
    rng: np.random.Generator,
    theta_grid=DEFAULT_THETA_GRID,
    x: float = 1.0,
) -> SsReport:
    """Compare rescaled-field ch.f.s against the Gaussian or stable limit.

    direction "small": lam -> 0, lam^{-h1} J(lam x) against the fractional
    Brownian marginal; direction "large": lam -> infinity, lam^{-1/alpha}
    J(lam x) against the one-sided stable law.  n_rep = 0 skips sampling.
    """
    if direction not in ("small", "large"):
        raise ValueError("direction must be 'small' or 'large'")
    lams = [float(v) for v in lambdas]
    if any(v <= 0 for v in lams):
        raise ValueError("lambdas must be positive")
    a, c = spec.alpha, spec.c
    h1 = spec.hurst()
    var_limit = telecom_variance(a, c, 1.0, 1.0)
    # one-sided stable law with the duration tail constant as its right tail
    stable = stable_params_from_tails(a, c, 0.0)

    def oracle_logchf(theta: float) -> complex:
        if direction == "small":
            return complex(-0.5 * theta * theta * var_limit * x ** (2.0 * h1), 0.0)
        return x * complex(stable.logchf(theta))

    exponent = -h1 if direction == "small" else -1.0 / a
    exact_dist = []
    emp_dist = []
    emp_se = []
    flags = []
    consistent = True
    for lam in lams:
        scale = lam**exponent
        exact = {
            th: cmath.exp(telecom_logchf(-th * scale, lam * x, a, c, 1.0)) for th in theta_grid
        }
        target = {th: cmath.exp(oracle_logchf(th)) for th in theta_grid}
        exact_dist.append(max(abs(exact[th] - target[th]) for th in theta_grid))
        if n_rep > 0:
            draws = sample_telecom(spec, [lam * x], 1.0, rng, n_rep=n_rep)[:, 0] * scale
            slack_var = small_jump_variance(spec, lam * x, 1.0) + left_pad_variance(spec, lam * x, 1.0)
            dists = []
            ses = []
            for th in theta_grid:
                z = np.exp(1j * th * draws)
                emp = complex(np.mean(z))
                se = math.sqrt((np.var(z.real) + np.var(z.imag)) / n_rep)
                allowance = 0.5 * th * th * scale * scale * slack_var
                if abs(emp - exact[th]) > 3.0 * se + allowance:
                    consistent = False
                dists.append(abs(emp - target[th]))
                ses.append(se)
            emp_dist.append(max(dists))
            emp_se.append(max(ses))
    exact_monotone = all(b <= a_ for a_, b in zip(exact_dist, exact_dist[1:]))
    if n_rep > 0 and not all(b <= a_ for a_, b in zip(emp_dist, emp_dist[1:])):
        flags.append("empirical distances not monotone along the ladder")
    if not exact_monotone:
        flags.append("exact distances not monotone along the ladder")
    return SsReport(
        direction=direction,
        lambdas=tuple(lams),
        theta_grid=tuple(theta_grid),
        exact_dist=tuple(exact_dist),
        empirical_dist=tuple(emp_dist),
        empirical_se=tuple(emp_se),
        exact_monotone=exact_monotone,
        sampler_consistent=consistent,
        flags=tuple(flags),
    )
