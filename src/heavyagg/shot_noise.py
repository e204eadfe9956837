"""Poisson shot noise: stationary superposition of pulses at unit-rate arrivals.

The input process is X(t) = sum_j W_j(t - T_j) over a stationary Poisson
arrival stream.  The module draws exact-in-law samples of the windowed
integral int_0^T X(t) dt: arrivals inside the window are a Poisson(rate * T)
batch with uniform positions, and pulses already alive at the window start are
a Poisson(rate * E[D]) batch whose (age, duration) pairs come from the exact
length-biased device.  No truncation horizon is involved anywhere.

It also carries the per-family scaling table: the critical growth exponent
gamma0, the normalization exponent H(gamma), and the limit law with its closed
form constants for each of the three regimes, plus quadrature oracles for the
covariance function and for the characteristic function of the intermediate
(critical-regime) limit field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from . import numerics as nm
from . import pulses as pl
from .heavy_tail import (
    DegenerateDist,
    StableParams,
    sample_length_biased_pair,
    stable_params_from_tails,
)

__all__ = [
    "ShotNoiseSource",
    "RegimeSpec",
    "integrated_sample",
    "integrated_sample_batch",
    "integrated_path_batch",
    "covariance_oracle",
    "integral_variance",
    "regime_of",
    "intermediate_logchf",
]

_SHOT_FAMILIES = ("rect-indep", "rect-coupled", "exp-damped", "brownian", "mixture")


@dataclass(frozen=True)
class ShotNoiseSource:
    """A pulse model plus arrival intensity, validated for finite moments.

    The construction requires int_0^inf (E|W(t)| + E W(t)^2) dt < infinity,
    which per family means: duration tail index > 1 always; rect-coupled
    additionally alpha > 2 - p; Brownian pulses alpha > 2.
    """

    pulse: object
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.pulse.kind not in _SHOT_FAMILIES:
            raise ValueError(
                f"shot noise takes pulse families {_SHOT_FAMILIES}, not {self.pulse.kind!r}; "
                "cycle families belong to the regenerative input"
            )
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        for m in self._leaves():
            if m.kind not in _SHOT_FAMILIES[:-1]:
                raise ValueError(
                    f"mixture components must be plain shot-noise families, got {m.kind!r}"
                )
            alpha = m.R.alpha
            if alpha <= 1:
                raise ValueError("mean pulse duration is infinite (duration tail index <= 1)")
            if m.kind == "rect-coupled" and alpha <= 2.0 - m.p:
                raise ValueError(
                    f"rect-coupled needs alpha > 2 - p for a square-integrable pulse "
                    f"(alpha={alpha}, p={m.p})"
                )
            if m.kind == "brownian" and alpha <= 2.0:
                raise ValueError("Brownian pulses need duration tail index > 2")

    def _leaves(self):
        if self.pulse.kind == "mixture":
            return list(self.pulse.components)
        return [self.pulse]

    @property
    def mean_duration(self) -> float:
        return pl.duration_mean(self.pulse)

    def mean_level(self) -> float:
        """E X(t) = rate * int_0^inf E W(u) du, by closed form or quadrature."""
        return self.rate * _mean_pulse_mass(self.pulse)


def _mean_pulse_mass(model) -> float:
    kind = model.kind
    if kind == "rect-indep":
        return model.A.mean() * model.R.mean()
    if kind == "rect-coupled":
        return model.R.mean()
    if kind == "exp-damped":
        val, err = integrate.quad(
            lambda t: float(model.A.laplace(t)) * float(model.R.survival(t)), 0, np.inf, limit=400
        )
        return val
    if kind == "brownian":
        return 0.0
    if kind == "mixture":
        return float(sum(w * _mean_pulse_mass(c) for w, c in zip(model.weights, model.components)))
    raise ValueError(f"unknown family {kind!r}")


# -- batched exact sampling ----------------------------------------------------------


def _split_mixture(model, rng, k):
    """Component index per draw for mixture models."""
    return rng.choice(len(model.components), size=k, p=model.weights)


def _fresh_params(model, rng, k):
    kind = model.kind
    if kind == "rect-indep":
        return {"r": np.atleast_1d(model.R.sample(rng, k)), "amp": np.atleast_1d(model.A.sample(rng, k))}
    if kind == "rect-coupled":
        return {"r": np.atleast_1d(model.R.sample(rng, k))}
    if kind == "exp-damped":
        return {"r": np.atleast_1d(model.R.sample(rng, k)), "amp": np.atleast_1d(model.A.sample(rng, k))}
    if kind == "brownian":
        return {"r": np.atleast_1d(model.R.sample(rng, k))}
    raise ValueError(f"unknown family {kind!r}")


def _aged_params(model, rng, k):
    kind = model.kind
    if kind == "rect-coupled":
        d = pl.duration_dist(model)
        if d is None:
            raise ValueError("stationary sampling of rect-coupled needs a pareto-exact duration")
        age, _, dur = sample_length_biased_pair(d, rng, k)
        return np.atleast_1d(age), {"r": np.atleast_1d(dur) ** (1.0 / model.p)}
    age, _, r = sample_length_biased_pair(model.R, rng, k)
    out = {"r": np.atleast_1d(r)}
    if kind in ("rect-indep", "exp-damped"):
        out["amp"] = np.atleast_1d(model.A.sample(rng, k))
    return np.atleast_1d(age), out


def _window_values(model, params, a, b, rng):
    """Vectorized int_a^b w dt for realized parameter arrays (pulse-local times)."""
    kind = model.kind
    r = params["r"]
    if kind == "rect-indep":
        return params["amp"] * (np.clip(b, 0.0, r) - np.clip(a, 0.0, r))
    if kind == "rect-coupled":
        d = r**model.p
        return r ** (1.0 - model.p) * (np.clip(b, 0.0, d) - np.clip(a, 0.0, d))
    if kind == "exp-damped":
        rate = params["amp"]
        lo = np.clip(a, 0.0, r)
        hi = np.clip(b, 0.0, r)
        return np.exp(-rate * lo) * (-np.expm1(-rate * (hi - lo))) / rate
    if kind == "brownian":
        lo = np.clip(a, 0.0, r)
        hi = np.clip(b, 0.0, r)
        h = np.maximum(hi - lo, 0.0)
        b_lo = np.sqrt(lo) * rng.standard_normal(lo.shape)
        j = np.sqrt(h**3 / 3.0) * rng.standard_normal(h.shape)
        return b_lo * h + j
    raise ValueError(f"unknown family {kind!r}")


def integrated_sample_batch(src: ShotNoiseSource, T: float, rng: np.random.Generator, n_rep: int, origin: float = 0.0):
    """n_rep independent stationary samples of int_origin^(origin+T) X(t) dt."""
    if T <= 0:
        raise ValueError("window length must be positive")
    horizon = origin + T
    out = np.zeros(n_rep)
    mean_d = src.mean_duration
    if not math.isfinite(mean_d):
        raise ValueError("mean pulse duration must be finite")

    model = src.pulse
    leaves = [model] if model.kind != "mixture" else list(model.components)
    weights = [1.0] if model.kind != "mixture" else list(model.weights)

    # pulses arriving inside (0, horizon]
    n_new = rng.poisson(src.rate * horizon, n_rep)
    rep_new = np.repeat(np.arange(n_rep), n_new)
    k_new = rep_new.size
    if k_new:
        u = rng.uniform(0.0, horizon, k_new)
        a = np.maximum(origin - u, 0.0)
        b = horizon - u
        comp = _split_mixture(model, rng, k_new) if model.kind == "mixture" else np.zeros(k_new, dtype=int)
        vals = np.zeros(k_new)
        for ci, leaf in enumerate(leaves):
            mask = comp == ci
            if mask.any():
                params = _fresh_params(leaf, rng, int(mask.sum()))
                vals[mask] = _window_values(leaf, params, a[mask], b[mask], rng)
        out += np.bincount(rep_new, weights=vals, minlength=n_rep)

    # pulses alive at time zero (count Poisson(rate * E D), exact age law)
    if model.kind == "mixture":
        # a mixture's alive-pulse component is size-biased by the component mean duration
        means = np.array([pl.duration_mean(c) for c in leaves])
        probs = np.array(weights) * means
        probs /= probs.sum()
        n_old = rng.poisson(src.rate * float(np.dot(weights, means)), n_rep)
        rep_old = np.repeat(np.arange(n_rep), n_old)
        k_old = rep_old.size
        if k_old:
            comp = rng.choice(len(leaves), size=k_old, p=probs)
            vals = np.zeros(k_old)
            for ci, leaf in enumerate(leaves):
                mask = comp == ci
                if mask.any():
                    age, params = _aged_params(leaf, rng, int(mask.sum()))
                    vals[mask] = _window_values(leaf, params, age + origin, age + horizon, rng)
            out += np.bincount(rep_old, weights=vals, minlength=n_rep)
        return out

    n_old = rng.poisson(src.rate * mean_d, n_rep)
    rep_old = np.repeat(np.arange(n_rep), n_old)
    k_old = rep_old.size
    if k_old:
        age, params = _aged_params(model, rng, k_old)
        vals = _window_values(model, params, age + origin, age + horizon, rng)
        out += np.bincount(rep_old, weights=vals, minlength=n_rep)
    return out


def integrated_sample(src: ShotNoiseSource, T: float, rng: np.random.Generator, origin: float = 0.0) -> float:
    """One stationary sample of int_0^T X(t) dt (uncentered)."""
    return float(integrated_sample_batch(src, T, rng, 1, origin=origin)[0])


def _leaf_path_values(model, params, u, lows, cuts, rng):
    """Window increments (k, n_windows) of realized pulses anchored at times u.

    Window j covers global time (lows[j], cuts[j]].  Deterministic families
    reuse the single-window algebra per column.  Brownian pulses carry state
    across windows: the path value at each window boundary is drawn jointly
    with the window integral, so one pulse's columns come from one consistent
    Brownian path (anchoring at u < 0 reproduces the stationary age law).
    """
    k = u.size
    if model.kind != "brownian" or cuts.size == 1:
        vals = np.empty((k, cuts.size))
        for j in range(cuts.size):
            vals[:, j] = _window_values(model, params, lows[j] - u, cuts[j] - u, rng)
        return vals
    r = params["r"]
    vals = np.zeros((k, cuts.size))
    lo = np.clip(-u, 0.0, r)
    beta = np.sqrt(lo) * rng.standard_normal(k)
    for j in range(cuts.size):
        hi = np.clip(cuts[j] - u, 0.0, r)
        h = np.maximum(hi - lo, 0.0)
        z1 = rng.standard_normal(k)
        z2 = rng.standard_normal(k)
        # conditional on the boundary value beta: the integral over the next
        # stretch and the new boundary value are jointly Gaussian
        vals[:, j] = beta * h + h**1.5 * (0.5 * z1 + z2 / math.sqrt(12.0))
        beta = beta + np.sqrt(h) * z1
        lo = hi
    return vals


def integrated_path_batch(src: ShotNoiseSource, cuts, rng: np.random.Generator, n_rep: int):
    """Stationary increments int_{c_{j-1}}^{c_j} X dt over shared pulses.

    ``cuts`` are strictly increasing positive times c_1 < ... < c_n (the first
    window opens at 0).  Returns shape (n_rep, n_windows); each row's windows
    are evaluated on one set of pulses, so cumulative sums over a row form a
    consistent sample path of the integrated process.  With a single cut this
    consumes the generator exactly like ``integrated_sample_batch``.
    """
    cuts = np.asarray(cuts, dtype=float)
    if cuts.ndim != 1 or cuts.size == 0 or cuts[0] <= 0 or np.any(np.diff(cuts) <= 0):
        raise ValueError("cuts must be positive and strictly increasing")
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    horizon = float(cuts[-1])
    lows = np.concatenate(([0.0], cuts[:-1]))
    out = np.zeros((n_rep, cuts.size))
    mean_d = src.mean_duration
    if not math.isfinite(mean_d):
        raise ValueError("mean pulse duration must be finite")

    model = src.pulse
    leaves = [model] if model.kind != "mixture" else list(model.components)
    weights = [1.0] if model.kind != "mixture" else list(model.weights)

    def scatter(rep_ids, vals):
        # one bincount per window over the full pulse array keeps the
        # floating-point summation order identical to the single-window path
        for j in range(cuts.size):
            out[:, j] += np.bincount(rep_ids, weights=vals[:, j], minlength=n_rep)

    # pulses arriving inside (0, horizon]
    n_new = rng.poisson(src.rate * horizon, n_rep)
    rep_new = np.repeat(np.arange(n_rep), n_new)
    k_new = rep_new.size
    if k_new:
        u = rng.uniform(0.0, horizon, k_new)
        comp = _split_mixture(model, rng, k_new) if model.kind == "mixture" else np.zeros(k_new, dtype=int)
        vals = np.zeros((k_new, cuts.size))
        for ci, leaf in enumerate(leaves):
            mask = comp == ci
            if mask.any():
                params = _fresh_params(leaf, rng, int(mask.sum()))
                vals[mask] = _leaf_path_values(leaf, params, u[mask], lows, cuts, rng)
        scatter(rep_new, vals)

    # pulses alive at time zero, anchored at the negated stationary age
    if model.kind == "mixture":
        means = np.array([pl.duration_mean(c) for c in leaves])
        probs = np.array(weights) * means
        probs /= probs.sum()
        n_old = rng.poisson(src.rate * float(np.dot(weights, means)), n_rep)
        rep_old = np.repeat(np.arange(n_rep), n_old)
        k_old = rep_old.size
        if k_old:
            comp = rng.choice(len(leaves), size=k_old, p=probs)
            vals = np.zeros((k_old, cuts.size))
            for ci, leaf in enumerate(leaves):
                mask = comp == ci
                if mask.any():
                    age, params = _aged_params(leaf, rng, int(mask.sum()))
                    vals[mask] = _leaf_path_values(leaf, params, -age, lows, cuts, rng)
            scatter(rep_old, vals)
        return out

    n_old = rng.poisson(src.rate * mean_d, n_rep)
    rep_old = np.repeat(np.arange(n_rep), n_old)
    k_old = rep_old.size
    if k_old:
        age, params = _aged_params(model, rng, k_old)
        scatter(rep_old, _leaf_path_values(model, params, -age, lows, cuts, rng))
    return out


# -- covariance ------------------------------------------------------------------------


def covariance_oracle(src: ShotNoiseSource, t: float) -> float:
    """Cov(X(0), X(t)) = rate * int_0^inf E[W(u) W(u+t)] du, exact or quadrature."""
    if t < 0:
        raise ValueError("lag must be nonnegative")
    return src.rate * _cov_kernel_integral(src.pulse, t)


def _cov_kernel_integral(model, t: float) -> float:
    kind = model.kind
    if kind == "rect-indep":
        return model.A.moment(2.0) * float(model.R.integrated_survival(t))
    if kind == "mixture":
        return float(sum(w * _cov_kernel_integral(c, t) for w, c in zip(model.weights, model.components)))
    val, err = integrate.quad(lambda u: pl.corr_kernel(model, u, t), 0, np.inf, limit=400)
    if err > max(1e-8, 1e-6 * abs(val)):
        raise RuntimeError(f"covariance quadrature did not converge (error bound {err:.2e})")
    return val


def integral_variance(src: ShotNoiseSource, T: float) -> float:
    """Var(int_0^T X dt) = 2 int_0^T (T - t) Cov(X(0), X(t)) dt."""
    val, err = integrate.quad(lambda t: (T - t) * covariance_oracle(src, t), 0, T, limit=400)
    return 2.0 * val


# -- scaling regimes --------------------------------------------------------------------


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

    @property
    def H1(self) -> float:
        return self.H - self.gamma / 2.0 if self.limit_kind == "FBS" else self.constants.get("H1", float("nan"))


def _gaussian_limit_logchf(c_w: float, h1: float):
    def logchf(theta, x=1.0, y=1.0):
        theta = np.asarray(theta, dtype=float)
        return -0.5 * theta**2 * c_w**2 * x ** (2.0 * h1) * y + 0j

    return logchf


def _stable_limit_logchf(params: StableParams):
    def logchf(theta, x=1.0, y=1.0):
        return (x * y) * params.logchf(theta)

    return logchf


def regime_of(src: ShotNoiseSource, gamma: float) -> RegimeSpec:
    """The family's scaling table entry at source-count growth exponent gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    model = src.pulse
    kind = model.kind
    if kind == "rect-indep":
        rho = model.R.alpha
        if not 1.0 < rho < 2.0:
            raise ValueError(f"rect-indep scaling table needs duration tail in (1,2), got {rho}")
        c_rho = model.R.tail_constant()
        gamma0 = rho - 1.0
        h1 = (3.0 - rho) / 2.0
        c_x = model.A.moment(2.0) * c_rho / (rho - 1.0)
        alpha = rho
        c_plus = c_rho * model.A.moment(rho)
        c_minus = 0.0
    elif kind == "rect-coupled":
        rho, p = model.R.alpha, model.p
        if not 2.0 - p < rho < 2.0:
            raise ValueError(
                f"rect-coupled scaling table needs 2 - p < alpha < 2, got alpha={rho}, p={p}"
            )
        c_rho = model.R.tail_constant()
        gamma0 = rho / p - 1.0
        h1 = (p + 2.0 - rho) / (2.0 * p)
        c_x = c_rho * rho * p / ((rho + 2.0 * p - 2.0) * (rho + p - 2.0))
        alpha = rho
        c_plus, c_minus = c_rho, 0.0
    elif kind == "exp-damped":
        rho = model.R.alpha
        kappa, c_kappa = model.A.kappa, model.A.c
        if not 1.0 < rho + kappa < 2.0:
            raise ValueError(f"exp-damped scaling table needs 1 < alpha + kappa < 2, got {rho + kappa}")
        c_rho = model.R.tail_constant()
        gamma0 = rho + kappa - 1.0
        h1 = (3.0 - rho - kappa) / 2.0
        c_x = (
            special.gamma(kappa + 1.0)
            * c_kappa
            * c_rho
            * special.hyp2f1(kappa, 1.0, kappa + rho, -1.0)
            / (kappa + rho - 1.0)
        )
        alpha = rho + kappa
        # int_0^1 (1-u)^{kappa+rho-1} (log 1/u)^{-rho} du, with the (1-u)^{kappa-1}
        # endpoint singularity flattened by the substitution 1-u = v^{1/kappa}
        def tail_integrand(v):
            s = v ** (1.0 / kappa)
            if s >= 1.0:
                return 0.0
            return s**rho * (-math.log1p(-s)) ** (-rho) / kappa

        tail_int, _ = integrate.quad(tail_integrand, 0.0, 1.0, limit=400)
        c_plus = kappa * c_rho * c_kappa * tail_int
        c_minus = 0.0
    elif kind == "brownian":
        rho = model.R.alpha
        if not 2.0 < rho < 3.0:
            raise ValueError(f"Brownian-pulse scaling table needs duration tail in (2,3), got {rho}")
        c_rho = model.R.tail_constant()
        gamma0 = rho - 1.0
        h1 = 2.0 - rho / 2.0
        c_x = c_rho / ((rho - 1.0) * (rho - 2.0))
        alpha = 2.0 * rho / 3.0
        abs_moment = 2.0 ** (alpha / 2.0) * special.gamma((alpha + 1.0) / 2.0) / math.sqrt(math.pi)
        c_plus = c_minus = 0.5 * c_rho * abs_moment * 3.0 ** (-rho / 3.0)
    else:
        raise ValueError(f"no scaling table for pulse family {kind!r}")

    constants = {"c_X": c_x, "H1": h1, "c_plus": c_plus, "c_minus": c_minus}
    # gamma0 comes out of float arithmetic (1.4 - 1.0 == 0.3999999999999999),
    # so a gamma that equals it up to rounding is the critical exponent
    critical = math.isclose(gamma, gamma0, rel_tol=1e-12, abs_tol=1e-12)
    if gamma > gamma0 and not critical:
        c_w = math.sqrt(c_x / ((2.0 * h1 - 1.0) * h1))
        constants["C_W"] = c_w
        return RegimeSpec(gamma0, gamma, h1 + gamma / 2.0, alpha, "FBS", constants,
                          logchf=_gaussian_limit_logchf(c_w, h1))
    if gamma < gamma0 and not critical:
        params = stable_params_from_tails(alpha, c_plus, c_minus)
        constants["stable"] = params
        return RegimeSpec(gamma0, gamma, (1.0 + gamma) / alpha, alpha, "StableSheet", constants,
                          logchf=_stable_limit_logchf(params))
    constants["nu_scale"] = model.R.tail_constant()
    return RegimeSpec(gamma0, gamma, h1 + gamma0 / 2.0, alpha, "Intermediate", constants,
                      logchf=lambda theta, x=1.0, y=1.0: intermediate_logchf(model, theta, x, y))


# -- intermediate-limit characteristic functions -----------------------------------------


def _ramp_inner(theta_h: float, m: float, plateau: float) -> complex:
    """Closed form of int Psi(theta_h * overlap(u)) du for a rectangular pulse.

    The overlap rises linearly 0 -> m, sits at m for ``plateau`` length, and
    falls back; the two ramps contribute 2 * int_0^m Psi(theta_h s) ds
    = 2 [ (sin z - z) + i ((1 - cos z) - z^2/2) ] / theta_h with z = theta_h m.
    """
    th = theta_h
    if th == 0.0:
        return 0.0
    z = th * m
    ramp = complex(nm.sin_minus_z(z) / th, nm.one_minus_cos_minus_half_sq(z) / th)
    return 2.0 * ramp + plateau * nm.psi(z)


def intermediate_logchf(model, theta: float, x: float, y: float = 1.0) -> complex:
    """log E exp(i theta V(x, y)) for the critical-regime limit of a shot-noise family.

    The limit field is a compensated Poisson integral over pulses scattered in
    (arrival, vertical) coordinates with the duration-tail Levy measure; the
    quadrature reduces the arrival coordinate to closed form for rectangular
    families and keeps it numeric otherwise.
    """
    kind = model.kind
    theta = float(theta)
    if theta == 0.0:
        return 0.0 + 0.0j
    rho = model.R.alpha
    c_rho = model.R.tail_constant()

    def duration_quad(f, break_r):
        """Integrate f against the duration Levy measure, split at the kink radius.

        On the head segment the substitution r = q^2 flattens the r^{1-rho}-type
        endpoint singularity that otherwise starves the adaptive rule.
        """
        def weighted(r):
            return f(r) * rho * c_rho * r ** (-1 - rho)

        sq = math.sqrt(break_r)

        def head(q):
            return weighted(q * q) * 2.0 * q

        re1, _ = integrate.quad(lambda q: head(q).real, 0, sq, limit=300)
        re2, _ = integrate.quad(lambda r: weighted(r).real, break_r, np.inf, limit=300)
        im1, _ = integrate.quad(lambda q: head(q).imag, 0, sq, limit=300)
        im2, _ = integrate.quad(lambda r: weighted(r).imag, break_r, np.inf, limit=300)
        return complex(re1 + re2, im1 + im2)

    if kind in ("rect-indep", "rect-coupled"):
        if kind == "rect-indep":
            def amp_expect(f):
                a_law = model.A
                if isinstance(a_law, DegenerateDist):
                    return f(a_law.value)
                if hasattr(a_law, "expect"):
                    return complex(
                        a_law.expect(lambda a: f(a).real), a_law.expect(lambda a: f(a).imag)
                    )
                raise ValueError("intermediate oracle needs a degenerate or expect-capable amplitude law")

            def integrand(r):
                m = min(r, x)
                plateau = abs(x - r)
                return amp_expect(lambda a: _ramp_inner(theta * a, m, plateau))
        else:
            p = model.p

            def integrand(r):
                d = r**p
                h = r ** (1.0 - p)
                m = min(d, x)
                plateau = abs(x - d)
                return _ramp_inner(theta * h, m, plateau)

        break_r = x if kind == "rect-indep" else x ** (1.0 / model.p)
        return y * duration_quad(integrand, break_r)

    if kind == "brownian":
        def inner(r):
            def over_u(u):
                a0 = max(0.0, -u)
                b0 = min(r, x - u)
                if b0 <= a0:
                    return 0.0
                v = (b0 - a0) ** 2 * (b0 + 2.0 * a0) / 3.0  # Var of int_a0^b0 B
                return math.expm1(-0.5 * theta * theta * v)

            kinks = [p for p in (0.0, x - r) if -r < p < x]
            val, _ = integrate.quad(over_u, -r, x, points=kinks, limit=200)
            return complex(val, 0.0)

        return y * duration_quad(inner, x)

    if kind == "exp-damped":
        kappa = model.A.kappa
        nodes, weights = np.polynomial.legendre.leggauss(24)
        v_nodes = 0.5 * (nodes + 1.0)
        a_nodes = v_nodes ** (1.0 / kappa) * model.A.upper  # inverse-CDF transform
        a_weights = 0.5 * weights

        def mass(a, u, r):
            lo = max(0.0, -u)
            hi = min(r, x - u)
            if hi <= lo:
                return 0.0
            return math.exp(-a * lo) * (-math.expm1(-a * (hi - lo))) / a

        def inner(r):
            acc = 0.0 + 0.0j
            for a, w in zip(a_nodes, a_weights):
                lo_u = max(-r, -60.0 / a)  # mass decays like e^{a u} for u < 0
                kinks = [p for p in (0.0, x - r) if lo_u < p < x]
                val_re, _ = integrate.quad(
                    lambda u: nm.cos_minus_one(theta * mass(a, u, r)), lo_u, x, points=kinks, limit=60
                )
                val_im, _ = integrate.quad(
                    lambda u: nm.sin_minus_z(theta * mass(a, u, r)), lo_u, x, points=kinks, limit=60
                )
                acc += w * complex(val_re, val_im)
            return acc

        return y * duration_quad(inner, x)

    raise ValueError(f"no intermediate-limit oracle for family {kind!r}")
