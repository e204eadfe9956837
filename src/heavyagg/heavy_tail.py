"""Heavy-tailed building blocks.

This module is the probabilistic bedrock of the lab: the exact Pareto law
that every heavy-tailed leg and duration follows, with an exact inverse-CDF
sampler; the log characteristic function of totally and partially skewed
stable laws and the tail-constant to stable-parameter map; and exact
length-biased (stationary age) sampling used to start pulses and cycles in
steady state.

Conventions
-----------
* ``survival(x)`` is P(X > x); all distribution methods are vectorized.
* Every sampler takes the generator and a draw count ``size`` and returns
  a float64 array of that many draws; there is no scalar form.
* A law may also sum its own draws.  ``sum_sample(rng, k, size)`` returns
  ``size`` sums of ``k`` independent draws, and ``split_sum(rng, totals,
  k)`` draws, given those sums, the ``k`` draws behind each one as a
  ``(k, totals.size)`` array.  Together they give the law of ``k`` draws and
  their sum; a caller that needs the draws only for some sums splits only
  those.  The exponential and degenerate laws have both; callers test for
  them with ``hasattr``.
* Stable laws use the parameterization in which the log characteristic
  function of X ~ (alpha, sigma, beta) is
  ``-sigma**alpha * |t|**alpha * (1 - i*beta*sign(t)*tan(pi*alpha/2))``,
  so for alpha in (1, 2) the law is centered (zero mean).
* "Tail constant" c means survival(x) ~ c * x**(-alpha) as x -> infinity;
  for ``RegVaryingDist`` equality holds beyond ``x_min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import numerics as nm

__all__ = [
    "RegVaryingDist",
    "ExponentialDist",
    "DegenerateDist",
    "UniformDist",
    "LowTailPowerDist",
    "StableParams",
    "stable_params_from_tails",
    "sample_length_biased_pair",
]


@dataclass(frozen=True)
class RegVaryingDist:
    """The exact Pareto law: P(X > x) = (x_min / x)**alpha for x >= x_min.

    Its survival function is regularly varying of index -alpha, with tail
    constant x_min**alpha holding exactly beyond x_min.

    Parameters
    ----------
    alpha : float
        Tail index, > 0.  Most of the lab lives in (1, 2), but larger values
        are allowed (e.g. pulse-length laws with finite variance).
    x_min : float
        Scale parameter and lower end of the support, > 0.
    """

    alpha: float
    x_min: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.x_min < math.inf:
            raise ValueError(f"x_min must be positive and finite, got {self.x_min}")

    # -- distribution function ------------------------------------------------

    def survival(self, x):
        """P(X > x), elementwise."""
        x = np.asarray(x, dtype=float)
        return np.where(x < self.x_min, 1.0, (self.x_min / np.maximum(x, self.x_min)) ** self.alpha)

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def pdf(self, x):
        """Density, elementwise."""
        x = np.asarray(x, dtype=float)
        a, xm = self.alpha, self.x_min
        return np.where(x < xm, 0.0, a * xm**a * np.maximum(x, xm) ** (-a - 1.0))

    # -- moments ----------------------------------------------------------------

    def mean(self) -> float:
        if self.alpha <= 1:
            raise ValueError("mean is infinite for alpha <= 1")
        return self.alpha * self.x_min / (self.alpha - 1.0)

    def moment(self, q: float) -> float:
        """E[X**q] for 0 < q < alpha."""
        if not 0 < q < self.alpha:
            raise ValueError(f"moment of order {q} is infinite or undefined for alpha={self.alpha}")
        return self.alpha * self.x_min**q / (self.alpha - q)

    def tail_constant(self) -> float:
        """c = x_min**alpha, with survival(x) = c * x**(-alpha) for x >= x_min."""
        return self.x_min**self.alpha

    def partial_moment(self, q: float, m: float) -> float:
        """E[X**q; X > m] for q < alpha, in closed form."""
        if not q < self.alpha:
            raise ValueError(f"partial moment of order {q} diverges for alpha={self.alpha}")
        if q == 0.0:
            return float(self.survival(max(m, 0.0)))
        lo = max(m, self.x_min)
        return self.alpha * self.x_min**self.alpha * lo ** (q - self.alpha) / (self.alpha - q)

    def integrated_survival(self, t):
        """Integral of the survival function over (t, infinity)."""
        if self.alpha <= 1:
            raise ValueError("integrated survival diverges for alpha <= 1")
        t = np.asarray(t, dtype=float)
        a, xm = self.alpha, self.x_min
        above = xm**a * np.maximum(t, xm) ** (1.0 - a) / (a - 1.0)
        return np.where(t < xm, (xm - t) + xm / (a - 1.0), above)

    # -- sampling ----------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size):
        """Exact draws by inverse-CDF: x_min * (1 - U)**(-1/alpha)."""
        u = rng.random(size)
        # 1 - U lies in (0, 1], so its power needs neither a floor nor a range check
        np.subtract(1.0, u, out=u)
        np.power(u, -1.0 / self.alpha, out=u)
        u *= self.x_min
        return u

    def sample_length_biased(self, rng: np.random.Generator, size):
        """Draws from the length-biased law, density x * f(x) / mean.

        Pareto(alpha, x_min) length-biases to Pareto(alpha - 1, x_min) exactly.
        """
        if self.alpha <= 1:
            raise ValueError("length-biased law undefined for alpha <= 1 (infinite mean)")
        return RegVaryingDist(self.alpha - 1.0, self.x_min).sample(rng, size)


@dataclass(frozen=True)
class ExponentialDist:
    """Exponential law with the given mean (used for light-tailed cycle parts)."""

    mean_value: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.mean_value < math.inf:
            raise ValueError("mean_value must be positive and finite")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 1.0, np.exp(-np.maximum(x, 0.0) / self.mean_value))

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, np.exp(-np.maximum(x, 0.0) / self.mean_value) / self.mean_value)

    def mean(self) -> float:
        return self.mean_value

    def moment(self, q: float) -> float:
        return self.mean_value**q * float(special.gamma(q + 1.0))

    def integrated_survival(self, t):
        t = np.asarray(t, dtype=float)
        core = self.mean_value * np.exp(-np.maximum(t, 0.0) / self.mean_value)
        return np.where(t < 0, core - t, core)

    def sample(self, rng: np.random.Generator, size):
        return rng.exponential(self.mean_value, size)

    def sample_length_biased(self, rng: np.random.Generator, size):
        return rng.gamma(2.0, self.mean_value, size)

    def sum_sample(self, rng: np.random.Generator, k: int, size):
        """``size`` sums of ``k`` draws: Gamma(k, mean), one draw per sum.

        Gamma(1) is the exponential law itself, whose sampler is faster.
        """
        sums = rng.standard_exponential(size) if k == 1 else rng.standard_gamma(k, size)
        sums *= self.mean_value
        return sums

    def split_sum(self, rng: np.random.Generator, totals, k: int):
        """The ``k`` draws behind each of ``totals``, shape (k, totals.size).

        Given their sum G, k iid exponentials are G times a flat Dirichlet
        vector, independent of G, which normalised standard exponentials
        draw (Devroye 1986, *Non-Uniform Random Variate Generation*, ch. V).
        One draw is its sum, so ``k == 1`` takes nothing from ``rng``.
        """
        if k == 1:
            return totals[None, :]
        legs = rng.standard_exponential((k, totals.size))
        legs *= totals / legs.sum(axis=0)
        return legs


@dataclass(frozen=True)
class DegenerateDist:
    """Point mass (e.g. a constant pulse amplitude)."""

    value: float

    def __post_init__(self) -> None:
        if not 0 <= self.value < math.inf:
            raise ValueError("value must be nonnegative and finite")

    def survival(self, x):
        return np.where(np.asarray(x, dtype=float) < self.value, 1.0, 0.0)

    def mean(self) -> float:
        return self.value

    def moment(self, q: float) -> float:
        return self.value**q

    def sample(self, rng: np.random.Generator, size):
        return np.full(size, self.value, dtype=float)

    def sample_length_biased(self, rng: np.random.Generator, size):
        return self.sample(rng, size)

    def sum_sample(self, rng: np.random.Generator, k: int, size):
        """``size`` sums of ``k`` draws, ``k * value`` each; takes nothing from ``rng``."""
        return np.full(size, k * self.value, dtype=float)

    def split_sum(self, rng: np.random.Generator, totals, k: int):
        """Every draw is ``value`` whatever the sum; shape (k, totals.size)."""
        return np.full((k, totals.size), self.value, dtype=float)


@dataclass(frozen=True)
class UniformDist:
    """Uniform law on [lo, hi] (bounded rewards, stress-test amplitudes)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError("need finite lo < hi")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def moment(self, q: float) -> float:
        if q == 1.0:
            return self.mean()
        if self.lo < 0 and q != int(q):
            raise ValueError("non-integer moment of a law with negative support")
        span = self.hi - self.lo
        return (self.hi ** (q + 1.0) - self.lo ** (q + 1.0)) / ((q + 1.0) * span)

    def expect(self, func) -> float:
        return nm.checked_quad(func, self.lo, self.hi, "uniform expectation") / (self.hi - self.lo)

    def sample(self, rng: np.random.Generator, size):
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class LowTailPowerDist:
    """Law on (0, c**(-1/kappa)] with P(X <= x) = c * x**kappa.

    The regular variation sits at the *origin*: small values are what carry
    the heavy behavior (slow exponential damping rates).  With c = 1 this is
    X = U**(1/kappa) for U uniform on (0, 1].
    """

    kappa: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")

    @property
    def upper(self) -> float:
        return self.c ** (-1.0 / self.kappa)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(self.c * np.maximum(x, 0.0) ** self.kappa, 0.0, 1.0)

    def mean(self) -> float:
        return self.moment(1.0)

    def moment(self, q: float) -> float:
        if q <= -self.kappa:
            raise ValueError(f"moment of order {q} diverges for kappa={self.kappa}")
        return self.kappa * self.c ** (-q / self.kappa) / (self.kappa + q)

    def laplace(self, s):
        """E[exp(-s X)], exact via the lower incomplete gamma function."""
        s = np.asarray(s, dtype=float)
        safe = np.maximum(s, 1e-300)
        val = self.kappa * self.c * special.gamma(self.kappa) * safe ** (-self.kappa) \
            * special.gammainc(self.kappa, safe * self.upper)
        return np.where(s < 1e-12, 1.0 - s * self.mean(), val)

    def sample(self, rng: np.random.Generator, size):
        u = rng.random(size)
        u = np.maximum(u, np.finfo(float).tiny)
        return (u / self.c) ** (1.0 / self.kappa)


# -- stable laws ------------------------------------------------------------------


@dataclass(frozen=True)
class StableParams:
    """Strictly stable law with index in (1, 2): (alpha, sigma, beta), zero mean."""

    alpha: float
    sigma: float
    beta: float

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [-1, 1]")

    def logchf(self, theta):
        """log E[exp(i * theta * X)], elementwise in theta."""
        th = np.asarray(theta, dtype=float)
        skew = 1.0 - 1j * self.beta * np.sign(th) * math.tan(math.pi * self.alpha / 2.0)
        return -(self.sigma**self.alpha) * np.abs(th) ** self.alpha * skew


def stable_params_from_tails(alpha: float, c_plus: float, c_minus: float) -> StableParams:
    """Stable parameters whose law has tail constants (c_plus, c_minus).

    For the centered law with P(X > x) ~ c_plus * x**(-alpha) and
    P(X < -x) ~ c_minus * x**(-alpha):

        sigma**alpha = Gamma(2 - alpha) / (1 - alpha) * cos(pi*alpha/2) * (c_plus + c_minus)
        beta         = (c_plus - c_minus) / (c_plus + c_minus)

    (both factors in sigma**alpha are negative on (1, 2), so it is positive).
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if c_plus < 0 or c_minus < 0:
        raise ValueError("tail constants must be nonnegative")
    total = c_plus + c_minus
    if total == 0:
        return StableParams(alpha, 0.0, 0.0)
    sigma_alpha = special.gamma(2.0 - alpha) / (1.0 - alpha) * math.cos(math.pi * alpha / 2.0) * total
    beta = (c_plus - c_minus) / total
    return StableParams(alpha, sigma_alpha ** (1.0 / alpha), beta)


# -- steady-state sampling ---------------------------------------------------------


def sample_length_biased_pair(dist, rng: np.random.Generator, size):
    """Stationary (age, total) arrays for cycles with law ``dist``.

    The total is a length-biased draw and the age is uniform on (0, total);
    marginally both the age and the residual ``total - age`` then follow the
    stationary excess law with survival ``integrated_survival(t) / mean``.
    """
    total = dist.sample_length_biased(rng, size)
    return rng.random(size) * total, total
