"""Pulse families: the random session shapes W(t) that drive both input classes.

Seven families are supported.  Four of them feed the shot-noise input
(rectangular with independent amplitude, rectangular with duration-coupled
height, exponentially damped, Brownian); three describe one regenerative cycle
(ON/OFF indicator, workload triangle, constant reward over a cycle), and the
regenerative input also runs exp-damped pulses as cycles.

``KERNELS`` holds one vectorised kernel per family, shared by both input
classes: it draws fresh pulses and stationary pulses alive at time zero, and
gives the exact window mass int_lo^hi w(t) dt and the point value w(s) in
pulse-local time.  A realized deterministic pulse is an array pair (d, m):
its duration and its one mark.  Brownian pulses draw durations only; the
shot-noise sampler draws their path together with its window values.  The
first and second pulse moments (mean mass, correlation kernel) feed the mean
levels and the covariance oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .heavy_tail import (
    DegenerateDist,
    LowTailPowerDist,
    RegVaryingDist,
    sample_length_biased_pair,
)

__all__ = [
    "RectIndep",
    "RectCoupled",
    "ExpDamped",
    "BrownianPulse",
    "OnOff",
    "Workload",
    "RenewalReward",
    "MixturePulse",
    "RewardLaw",
    "vanishing_reward",
    "PulseKernel",
    "KERNELS",
    "duration_dist",
    "duration_mean",
    "mean_mass",
    "corr_kernel",
]


# -- reward laws -----------------------------------------------------------------


@dataclass(frozen=True)
class RewardLaw:
    """Bounded reward attached to a renewal cycle.

    kind "independent": draw W from ``dist`` independently of the cycle length;
    the law must be bounded (|W| <= bound).  kind "coupled": W = g(Z, U) with U
    uniform on (0,1) and g bounded by ``bound``; ``limit_dist`` is the law of
    the large-Z limit of g(Z, U) when one exists (None means the limit is 0).
    """

    kind: str
    dist: object | None = None
    g: object | None = None
    bound: float = 1.0
    limit_dist: object | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("independent", "coupled"):
            raise ValueError("reward kind must be 'independent' or 'coupled'")
        if self.kind == "independent" and self.dist is None:
            raise ValueError("independent reward needs a dist")
        if self.kind == "coupled" and self.g is None:
            raise ValueError("coupled reward needs a function g(z, u)")
        if not self.bound > 0:
            raise ValueError("bound must be positive")

    def sample_given_z(self, z, rng: np.random.Generator):
        z = np.asarray(z, dtype=float)
        if self.kind == "independent":
            return np.asarray(self.dist.sample(rng, z.size)).reshape(z.shape)
        u = rng.random(z.shape)
        return np.asarray(self.g(z, u), dtype=float)

    def cond_mean(self, z):
        """E[W | Z = z], vectorized (Gauss-Legendre in u for coupled laws)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "independent":
            return np.full(z.shape, self.dist.mean())
        nodes, weights = np.polynomial.legendre.leggauss(24)
        u = 0.5 * (nodes + 1.0)
        vals = np.array([self.g(z, np.full(z.shape, ui)) for ui in u])
        return 0.5 * np.tensordot(weights, vals, axes=1)

    def cond_moment2(self, z):
        """E[W^2 | Z = z], vectorized."""
        z = np.asarray(z, dtype=float)
        if self.kind == "independent":
            return np.full(z.shape, self.dist.moment(2.0))
        nodes, weights = np.polynomial.legendre.leggauss(24)
        u = 0.5 * (nodes + 1.0)
        vals = np.array([np.asarray(self.g(z, np.full(z.shape, ui))) ** 2 for ui in u])
        return 0.5 * np.tensordot(weights, vals, axes=1)

    def limit_expect(self, func) -> float:
        """E[func(W_infinity)] under the large-cycle limit law of the reward."""
        if self.kind == "independent":
            lim = self.dist
        else:
            lim = self.limit_dist
        if lim is None:
            return float(func(0.0))
        if isinstance(lim, DegenerateDist):
            return float(func(lim.value))
        if hasattr(lim, "expect"):
            return float(lim.expect(func))
        raise ValueError("limit law does not support expectations")


def vanishing_reward(delta: float) -> RewardLaw:
    """Default coupled reward g(z, u) = (1+z)^(-delta) * (2u-1): bounded, limit 0."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return RewardLaw(
        kind="coupled",
        g=lambda z, u: (1.0 + z) ** (-delta) * (2.0 * u - 1.0),
        bound=1.0,
        limit_dist=None,
    )


# -- pulse models ----------------------------------------------------------------


@dataclass(frozen=True)
class RectIndep:
    """W(t) = A * 1(0 < t <= R) with amplitude A independent of the duration R."""

    A: object
    R: RegVaryingDist

    kind = "rect-indep"


@dataclass(frozen=True)
class RectCoupled:
    """W(t) = R^(1-p) * 1(0 < t <= R^p): height and duration tied to one draw."""

    R: RegVaryingDist
    p: float

    kind = "rect-coupled"

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0, 1]")


@dataclass(frozen=True)
class ExpDamped:
    """W(t) = exp(-A t) * 1(0 < t <= R): random damping rate A, duration R."""

    A: LowTailPowerDist
    R: RegVaryingDist

    kind = "exp-damped"


@dataclass(frozen=True)
class BrownianPulse:
    """W(t) = B(t) * 1(0 < t <= R) with B a standard Brownian motion."""

    R: RegVaryingDist

    kind = "brownian"


@dataclass(frozen=True)
class OnOff:
    """Cycle Z = Z_on + Z_off, W(t) = 1(t < Z_on): the ON indicator comes first."""

    Zon: RegVaryingDist
    Zoff: object

    kind = "on-off"


@dataclass(frozen=True)
class Workload:
    """Cycle Z = Z_on + Z_off, W(t) = (Z_on - t)_+: residual work drains at unit rate."""

    Zon: RegVaryingDist
    Zoff: object

    kind = "workload"


@dataclass(frozen=True)
class RenewalReward:
    """Cycle length Z, constant reward W over the whole cycle: W(t) = W * 1(t < Z)."""

    Z: RegVaryingDist
    reward: RewardLaw

    kind = "renewal-reward"


@dataclass(frozen=True)
class MixturePulse:
    """Pick one of several pulse models with the given probabilities."""

    components: tuple
    weights: tuple

    kind = "mixture"

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be nonempty and equal length")
        if abs(sum(self.weights) - 1.0) > 1e-12 or min(self.weights) < 0:
            raise ValueError("weights must be a probability vector")


# -- durations --------------------------------------------------------------------


def duration_dist(model):
    """The law of the pulse duration D (cycle length for cycle families).

    Closed form for every family: rect-coupled durations R^p are again exact
    Pareto with index alpha/p and scale x_min^p; mixtures and two-part cycles
    have no single RegVaryingDist and return None.
    """
    kind = model.kind
    if kind in ("rect-indep", "exp-damped", "brownian"):
        return model.R
    if kind == "rect-coupled":
        if model.R.kind != "pareto-exact":
            return None
        return RegVaryingDist(model.R.alpha / model.p, model.R.x_min**model.p, "pareto-exact")
    if kind == "renewal-reward":
        return model.Z
    return None


def duration_mean(model) -> float:
    """E[D]; for cycles E[Z] = E[Z_on] + E[Z_off]."""
    kind = model.kind
    if kind in ("on-off", "workload"):
        return model.Zon.mean() + model.Zoff.mean()
    if kind == "mixture":
        return float(sum(w * duration_mean(c) for w, c in zip(model.weights, model.components)))
    d = duration_dist(model)
    if d is None:
        raise ValueError(f"no duration law for family {kind!r}")
    return d.mean()


# -- the kernel table ---------------------------------------------------------------
#
# A realized pulse is a pair of arrays (d, m): the duration (the cycle length
# for cycle families) and the one mark, which is the amplitude (rect-indep),
# the height R^(1-p) (rect-coupled), the damping rate (exp-damped), the busy-leg
# length (on-off, workload) or the reward (renewal-reward).  Brownian pulses
# have no mark (m is None).  Each sampler keeps its family's draw order.


def _floats(x):
    return np.asarray(x, dtype=float)


def _fresh_duration_mark(model, rng, n):
    """Duration R, then the mark A (rect-indep, exp-damped)."""
    return _floats(model.R.sample(rng, n)), _floats(model.A.sample(rng, n))


def _aged_duration_mark(model, rng, n):
    age, _, r = sample_length_biased_pair(model.R, rng, n)
    return age, r, _floats(model.A.sample(rng, n))


def _fresh_coupled(model, rng, n):
    r = _floats(model.R.sample(rng, n))
    return r**model.p, r ** (1.0 - model.p)


def _aged_coupled(model, rng, n):
    law = duration_dist(model)
    if law is None:
        raise ValueError("stationary sampling of rect-coupled needs a pareto-exact duration")
    age, _, d = sample_length_biased_pair(law, rng, n)
    return age, d, d ** ((1.0 - model.p) / model.p)


def _fresh_brownian(model, rng, n):
    return _floats(model.R.sample(rng, n)), None


def _aged_brownian(model, rng, n):
    age, _, r = sample_length_biased_pair(model.R, rng, n)
    return age, r, None


def _fresh_two_leg(model, rng, n):
    """Busy leg, then idle leg (on-off, workload); the mark is the busy length."""
    z_on = _floats(model.Zon.sample(rng, n))
    return z_on + _floats(model.Zoff.sample(rng, n)), z_on


def _aged_two_leg(model, rng, n):
    """The covering cycle is length biased with a uniform age.

    The biased total splits into mean-weighted branches (bias the busy leg
    and keep the idle leg fresh, or vice versa), so each leg reuses its exact
    length-biased device; the age stays uniform over the whole cycle either way.
    """
    mu_on, mu_off = model.Zon.mean(), model.Zoff.mean()
    pick = rng.random(n) * (mu_on + mu_off) < mu_on
    z_on = np.where(
        pick, _floats(model.Zon.sample_length_biased(rng, n)), _floats(model.Zon.sample(rng, n))
    )
    z_off = np.where(
        pick, _floats(model.Zoff.sample(rng, n)), _floats(model.Zoff.sample_length_biased(rng, n))
    )
    z = z_on + z_off
    return rng.random(n) * z, z, z_on


def _fresh_reward(model, rng, n):
    z = _floats(model.Z.sample(rng, n))
    return z, _floats(model.reward.sample_given_z(z, rng))


def _aged_reward(model, rng, n):
    age, _, z = sample_length_biased_pair(model.Z, rng, n)
    return age, z, _floats(model.reward.sample_given_z(z, rng))


def _flat_mass(m, lo, hi):
    """A level m held over the whole support (rectangles, renewal rewards)."""
    return m * (hi - lo)


def _flat_value(m, s):
    return m * np.ones_like(s, dtype=float)


def _exp_mass(m, lo, hi):
    return np.exp(-m * lo) * (-np.expm1(-m * (hi - lo))) / m


def _exp_value(m, s):
    return np.exp(-m * s)


def _on_mass(m, lo, hi):
    return np.minimum(hi, m) - np.minimum(lo, m)


def _on_value(m, s):
    return np.less(s, m).astype(float)


def _workload_mass(m, lo, hi):
    return 0.5 * (np.clip(m - lo, 0.0, None) ** 2 - np.clip(m - hi, 0.0, None) ** 2)


def _workload_value(m, s):
    return np.clip(m - s, 0.0, None)


class PulseKernel(NamedTuple):
    """Vectorised samplers and window functionals of one pulse family.

    ``fresh(model, rng, n)`` draws n pulses of age zero as (d, m);
    ``aged(model, rng, n)`` draws n stationary pulses alive at time zero as
    (age, d, m), the duration length biased and the age uniform on (0, d);
    ``mass(m, lo, hi)`` is int_lo^hi w(t) dt for pulse-local times
    0 <= lo <= hi <= d (callers clip to the support); ``value(m, s)`` is w(s)
    for 0 <= s < d.  Brownian pulses have no mass or value entry.
    """

    fresh: object
    aged: object
    mass: object
    value: object


KERNELS = {
    "rect-indep": PulseKernel(_fresh_duration_mark, _aged_duration_mark, _flat_mass, _flat_value),
    "rect-coupled": PulseKernel(_fresh_coupled, _aged_coupled, _flat_mass, _flat_value),
    "exp-damped": PulseKernel(_fresh_duration_mark, _aged_duration_mark, _exp_mass, _exp_value),
    "brownian": PulseKernel(_fresh_brownian, _aged_brownian, None, None),
    "on-off": PulseKernel(_fresh_two_leg, _aged_two_leg, _on_mass, _on_value),
    "workload": PulseKernel(_fresh_two_leg, _aged_two_leg, _workload_mass, _workload_value),
    "renewal-reward": PulseKernel(_fresh_reward, _aged_reward, _flat_mass, _flat_value),
}


# -- first and second pulse moments ---------------------------------------------------


def mean_mass(model) -> float:
    """E of the total pulse mass int_0^D w(t) dt (one full cycle for cycle families).

    Closed form except for exp-damped pulses, where it is the time integral of
    the mean pulse E[exp(-A t)] P(R > t), split where the survival kinks, and
    for coupled renewal rewards, which integrate E[W | Z = z] z over the cycle law.
    """
    kind = model.kind
    if kind == "rect-indep":
        return model.A.mean() * model.R.mean()
    if kind == "rect-coupled":
        return model.R.mean()
    if kind == "exp-damped":
        def integrand(t):
            return float(model.A.laplace(t)) * float(model.R.survival(t))

        head, _ = integrate.quad(integrand, 0.0, model.R.x_min, limit=200)
        tail, _ = integrate.quad(integrand, model.R.x_min, np.inf, limit=200)
        return head + tail
    if kind == "brownian":
        return 0.0
    if kind == "on-off":
        return model.Zon.mean()
    if kind == "workload":
        return 0.5 * model.Zon.moment(2.0)
    if kind == "renewal-reward":
        if model.reward.kind == "independent":
            return model.reward.dist.mean() * model.Z.mean()
        lo = model.Z.x_min if getattr(model.Z, "kind", "") == "pareto-exact" else 0.0
        val, _ = integrate.quad(
            lambda z: float(model.reward.cond_mean(z)) * z * float(model.Z.pdf(z)), lo, np.inf, limit=200
        )
        return val
    if kind == "mixture":
        return float(sum(w * mean_mass(c) for w, c in zip(model.weights, model.components)))
    raise ValueError(f"unknown pulse family {kind!r}")


def corr_kernel(model, u: float, t: float) -> float:
    """E[W(u) W(u+t)] (with the in-cycle indicator for cycle families); u, t >= 0."""
    if u <= 0:
        return 0.0
    s = u + t
    kind = model.kind
    if kind == "rect-indep":
        return model.A.moment(2.0) * float(model.R.survival(s))
    if kind == "rect-coupled":
        return model.R.partial_moment(2.0 - 2.0 * model.p, s ** (1.0 / model.p))
    if kind == "exp-damped":
        return float(model.A.laplace(2.0 * u + t)) * float(model.R.survival(s))
    if kind == "brownian":
        return u * float(model.R.survival(s))
    if kind == "on-off":
        return float(model.Zon.survival(s))
    if kind == "workload":
        if model.Zon.alpha <= 2.0:
            raise ValueError("workload correlation kernel needs alpha > 2 (finite E Z_on^2)")
        val, _ = integrate.quad(
            lambda v: (2.0 * v - 2.0 * u - t) * float(model.Zon.survival(v)), s, np.inf, limit=200
        )
        return val
    if kind == "renewal-reward":
        if model.reward.kind == "independent":
            return model.reward.dist.moment(2.0) * float(model.Z.survival(s))
        val, _ = integrate.quad(
            lambda z: float(model.reward.cond_moment2(np.array([z]))[0]) * float(model.Z.pdf(z)),
            s,
            np.inf,
            limit=200,
        )
        return val
    if kind == "mixture":
        return float(sum(w * corr_kernel(c, u, t) for w, c in zip(model.weights, model.components)))
    raise ValueError(f"unknown pulse family {kind!r}")
