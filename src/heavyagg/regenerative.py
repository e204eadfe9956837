"""Regenerative sources: cycle samplers, covariance decomposition, scaling constants.

A regenerative source restarts from scratch at renewal epochs: within each
cycle of length Z the process follows a reward kernel W(t) (an indicator, a
draining workload, a constant mark, an exponential decay) and the next cycle
begins when the current one ends.  The stationary version starts inside a
length-biased cycle at a uniform age.  Cycles are drawn and integrated by the
per-family kernels of the pulses module, the same ones shot noise uses.

Three groups of tools live here:

* exact-in-law samplers: the windowed integral of the stationary source,
  point evaluations of the state along a path, full-cycle masses and their
  centered versions, and M/G/1 busy periods (cycle-length laws that are only
  reachable by simulation);
* a covariance decomposition Cov(t) = R(t) + h(t) on a uniform grid, where
  R keeps the within-pulse part (exact per family) and h carries the
  cycle-recurrence part through the renewal function of the cycle-length
  law and the two boundary kernels of the pulse;
* ``regime_of``: the family constants of the scaling table (cycle tail,
  covariance and jump tail constants, the critical-regime Telecom route),
  which the regimes module turns into the limit law for a source-count
  growth exponent gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, signal

from . import pulses
from .heavy_tail import RegVaryingDist
from .heavy_tail import sample_length_biased_pair  # noqa: F401  (bench/layers.py traces this attribute)
from .limit_fields import telecom_logchf
from .regimes import RegimeSpec, build_regime

__all__ = [
    "RegenModel",
    "BusyPeriodLaw",
    "CovDecomposition",
    "sample_busy_period",
    "cycle_sample",
    "tilde_mass_sample",
    "integrated_sample",
    "integrated_path",
    "state_sample",
    "renewal_function",
    "cov_decomposition",
    "regime_of",
]

_FAMILIES = ("on-off", "workload", "renewal-reward", "exp-damped")

# per-pass working set of integrated_path in cycle cells (lanes times block
# length).  On on-off traffic with 300 lanes of about 44k cycles each (2-vCPU
# x86 host), 1 << 13 cells ran 1.6x slower than this and 1 << 17 about 8%
# faster for 8 MB more peak memory
BLOCK_CELL_BUDGET = 1 << 15
# cycles drawn per lane and pass, relative to the expected number still needed:
# heavy-tailed cycle sums fall short of their mean more often than not, so a
# block of exactly the expected size would leave most lanes for another pass
BLOCK_MARGIN = 1.25


# -- busy periods -----------------------------------------------------------------


def sample_busy_period(service, rng: np.random.Generator, size=None, cap: int = 100_000_000):
    """Busy period(s) of an M/G/1 queue with unit-rate Poisson arrivals.

    The first customer opens the period and new arrivals pile on while it
    drains.  With iid exp(1) gaps T_1, T_2, ... and service draws S_1, S_2,
    ... the number served is the first k with S_1 + ... + S_k <= T_1 + ... +
    T_k, and the busy period is the total service dispensed up to then.
    Requires E[service] < 1.  ``cap`` bounds the total number of service
    draws per call; exceeding it raises instead of looping silently, because
    heavy service tails can make single periods astronomically long.
    """
    if not service.mean() < 1.0:
        raise ValueError("busy periods need mean service below the unit arrival rate")
    scalar = size is None
    n = 1 if scalar else int(size)
    total = np.zeros(n)
    walk = np.zeros(n)
    active = np.arange(n)
    drawn = 0
    while active.size:
        drawn += active.size
        if drawn > cap:
            raise RuntimeError(
                f"busy-period simulation exceeded cap={cap} service draws before all "
                "periods closed; raise cap only if the wait is acceptable"
            )
        s = np.asarray(service.sample(rng, active.size), dtype=float)
        gaps = rng.exponential(1.0, active.size)
        total[active] += s
        walk[active] += s - gaps
        active = active[walk[active] > 0.0]
    return float(total[0]) if scalar else total


@dataclass(frozen=True)
class BusyPeriodLaw:
    """The busy-period length of an M/G/1 queue, packaged as a cycle-length law.

    Only sampling and the three tail descriptors are available: the law has
    no closed transform, so the covariance decomposition refuses it (study
    the samples directly).  A service tail of index alpha in (1, 2) passes
    straight through to the busy period; the tail constant picks up the
    factor (1 - E[service])^(-(1 + alpha)).
    """

    service: RegVaryingDist

    def __post_init__(self) -> None:
        if not self.service.mean() < 1.0:
            raise ValueError("busy periods need mean service below the unit arrival rate")

    @property
    def alpha(self) -> float:
        return self.service.alpha

    def mean(self) -> float:
        es = self.service.mean()
        return es / (1.0 - es)

    def tail_constant(self) -> float:
        es = self.service.mean()
        return self.service.tail_constant() / (1.0 - es) ** (1.0 + self.service.alpha)

    def sample(self, rng: np.random.Generator, size=None, cap: int = 100_000_000):
        return sample_busy_period(self.service, rng, size, cap)


# -- the model wrapper ------------------------------------------------------------


@dataclass(frozen=True)
class RegenModel:
    """A stationary regenerative source built on one cycle pulse family.

    Accepts the on-off, workload, renewal-reward and exp-damped families (for
    the last one the cycle length is the pulse duration itself).  Cycle legs
    must have finite means; the workload family additionally needs a
    square-integrable busy leg so the mean state exists.  Busy-period cycle
    laws are refused here: they have no closed survival function and every
    decomposition below needs one, so draw them with ``sample_busy_period``
    and work with the samples.
    """

    pulse: object

    def __post_init__(self) -> None:
        kind = getattr(self.pulse, "kind", None)
        if kind not in _FAMILIES:
            raise ValueError(f"no regenerative treatment for pulse family {kind!r}")
        for name, leg in self._legs():
            if isinstance(leg, BusyPeriodLaw):
                raise ValueError(
                    f"{name} is a busy-period law with no closed transform; sample it "
                    "with sample_busy_period and study the draws directly"
                )
        pulses.duration_mean(self.pulse)  # raises if any leg has an infinite mean
        if kind == "workload":
            self.pulse.Zon.moment(2.0)  # the mean state needs a square-integrable busy leg

    def _legs(self):
        p = self.pulse
        if p.kind in ("on-off", "workload"):
            return (("Zon", p.Zon), ("Zoff", p.Zoff))
        if p.kind == "renewal-reward":
            return (("Z", p.Z),)
        return (("R", p.R),)

    @property
    def kind(self) -> str:
        return self.pulse.kind

    @property
    def mu(self) -> float:
        """Mean cycle length."""
        return pulses.duration_mean(self.pulse)

    @property
    def mean_rate(self) -> float:
        """E[X(t)] of the stationary source: mean cycle mass over mean cycle length."""
        return pulses.mean_mass(self.pulse) / self.mu


# -- cycle-level samplers -----------------------------------------------------------


def cycle_sample(model: RegenModel, rng: np.random.Generator, size=None):
    """(cycle length, integrated cycle mass) from fresh cycles."""
    scalar = size is None
    n = 1 if scalar else int(size)
    kern = pulses.KERNELS[model.kind]
    z, aux = kern.fresh(model.pulse, rng, n)
    mass = kern.mass(aux, 0.0, z)
    if scalar:
        return float(z[0]), float(mass[0])
    return z, mass


def tilde_mass_sample(model: RegenModel, rng: np.random.Generator, size=None):
    """Centered cycle masses: integrated mass minus mean rate times cycle length.

    These are the per-cycle jumps behind the slow-growth stable limit; their
    two tails carry the constants reported by the scaling table.
    """
    scalar = size is None
    n = 1 if scalar else int(size)
    kern = pulses.KERNELS[model.kind]
    z, aux = kern.fresh(model.pulse, rng, n)
    out = kern.mass(aux, 0.0, z) - model.mean_rate * z
    return float(out[0]) if scalar else out


def integrated_sample(
    model: RegenModel,
    T: float,
    rng: np.random.Generator,
    n_rep=None,
    stationary: bool = True,
):
    """Exact draw(s) of the integral of the source over (0, T].

    This is ``integrated_path`` with the single cut T.  ``stationary`` starts
    inside a length-biased cycle at a uniform age; switching it off starts at
    a renewal epoch.
    """
    if not T > 0:
        raise ValueError("window length T must be positive")
    scalar = n_rep is None
    out = integrated_path(model, [T], rng, 1 if scalar else int(n_rep), stationary)[:, 0]
    return float(out[0]) if scalar else out


def _running_sum(start, steps):
    """start + cumulative sums of ``steps`` down axis 0.

    One vector add per row: numpy's accumulate walks each column separately,
    which costs several times more when the rows are long.
    """
    out = np.empty_like(steps)
    np.add(start, steps[0], out=out[0])
    for row in range(1, steps.shape[0]):
        np.add(out[row - 1], steps[row], out=out[row])
    return out


def integrated_path(
    model: RegenModel,
    cuts,
    rng: np.random.Generator,
    n_lanes: int,
    stationary: bool = True,
):
    """Window increments of the integrated source along one path per lane.

    ``cuts`` are strictly increasing, positive, finite times; window j covers
    (cuts[j-1], cuts[j]] with the first window opening at 0.  Returns shape
    (n_lanes, len(cuts)).  All windows of a lane are slices of the same cycle
    sequence, so cumulative row sums form a consistent integrated path.

    Cycles are drawn in blocks.  Each pass gives every lane that has not yet
    reached the last cut K fresh cycles, with K sized from the expected number
    still needed and capped at ``BLOCK_CELL_BUDGET`` // lanes (but at least
    one).  Cumulative sums place the cycle ends and the
    full-cycle masses; the path at a cut is the mass of the cycles ending
    before it plus the partial mass of the cycle that straddles it.  Cycles
    ending past the last cut are discarded, which leaves the law exact because
    fresh cycles are iid and independent of the path so far.
    """
    cuts = np.asarray(cuts, dtype=float)
    if (cuts.ndim != 1 or cuts.size == 0 or not np.all(np.isfinite(cuts)) or cuts[0] <= 0
            or np.any(np.diff(cuts) <= 0)):
        raise ValueError("cuts must be finite, positive and strictly increasing")
    if n_lanes < 1:
        raise ValueError("n_lanes must be at least 1")
    kern = pulses.KERNELS[model.kind]
    horizon = cuts[-1]
    # lane state: the integrated path at every cut, the end of the last placed
    # cycle and the integrated path at that end
    if stationary:
        age, z, aux = kern.aged(model.pulse, rng, n_lanes)
        path = kern.mass(aux[:, None], age[:, None], np.minimum(age[:, None] + cuts, z[:, None]))
        end = z - age
        mass = kern.mass(aux, age, z)
    else:
        path = np.zeros((n_lanes, cuts.size))
        end = np.zeros(n_lanes)
        mass = np.zeros(n_lanes)
    next_cut = np.append(cuts, np.inf)  # next_cut[filled]: a lane's first unfilled cut
    filled = np.searchsorted(cuts, end, side="right")
    active = np.flatnonzero(end < horizon)
    while active.size:
        need = (horizon - end[active].min()) / model.mu
        k = max(1, min(math.ceil(BLOCK_MARGIN * need), BLOCK_CELL_BUDGET // active.size))
        z, aux = kern.fresh(model.pulse, rng, k * active.size)
        # row i holds the i-th new cycle of every active lane
        z, aux = z.reshape(k, active.size), aux.reshape(k, active.size)
        ends = _running_sum(end[active], z)
        masses = _running_sum(mass[active], kern.mass(aux, 0.0, z))
        # only lanes whose block reaches their first unfilled cut have cuts to fill
        hit = np.flatnonzero(ends[-1] >= next_cut[filled[active]])
        lanes = active[hit]
        # cycle i of hit lane c straddles the cuts with indices in [lo[i, c], hi[i, c])
        hi = np.searchsorted(cuts, ends[:, hit], side="right")
        lo = np.vstack((filled[lanes], hi[:-1]))
        i, c = np.nonzero(hi > lo)
        reps = hi[i, c] - lo[i, c]
        first = np.repeat(np.cumsum(reps) - reps, reps)
        i, c = np.repeat(i, reps), np.repeat(c, reps)
        j = lo[i, c] + np.arange(first.size) - first
        col = hit[c]
        start = np.where(i > 0, ends[i - 1, col], end[lanes[c]])
        before = np.where(i > 0, masses[i - 1, col], mass[lanes[c]])
        path[lanes[c], j] = before + kern.mass(aux[i, col], 0.0, np.minimum(cuts[j] - start, z[i, col]))
        filled[lanes] = hi[-1]
        end[active] = ends[-1]
        mass[active] = masses[-1]
        active = active[ends[-1] < horizon]
    return np.diff(path, axis=1, prepend=0.0)


def state_sample(model: RegenModel, times, rng: np.random.Generator, n_rep=None):
    """Stationary state values X(t_k) along one path per replicate.

    ``times`` must be nondecreasing and nonnegative.  Returns shape
    (n_rep, len(times)), or (len(times),) for the default single replicate.
    Within a lane the values come from one consistent path, so lagged
    products estimate the covariance function.
    """
    tq = np.asarray(times, dtype=float)
    if tq.ndim != 1 or tq.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if tq[0] < 0 or np.any(np.diff(tq) < 0):
        raise ValueError("times must be nondecreasing and nonnegative")
    scalar = n_rep is None
    n = 1 if scalar else int(n_rep)
    kern = pulses.KERNELS[model.kind]
    age, z, aux = kern.aged(model.pulse, rng, n)
    start = -age  # global time at which the covering cycle began
    end = z - age
    vals = np.zeros((n, tq.size))
    for k, t in enumerate(tq):
        lag = np.flatnonzero(end <= t)
        while lag.size:
            z_new, aux_new = kern.fresh(model.pulse, rng, lag.size)
            start[lag] = end[lag]
            end[lag] = end[lag] + z_new
            aux[lag] = aux_new
            lag = lag[end[lag] <= t]
        vals[:, k] = kern.value(aux, t - start)
    return vals[0] if scalar else vals


# -- renewal function and covariance decomposition ----------------------------------


def _solve_renewal(dF: np.ndarray) -> np.ndarray:
    """Trapezoid-weighted solve of U = 1 + F * U given cdf increments on a uniform grid.

    Each cdf increment is paired with the average of the two bracketing U
    values; the unknown endpoint makes the sweep implicit, hence the constant
    denominator.  Both partial sums stay contiguous BLAS dots by walking a
    reversed copy of the increments.
    """
    n = dF.size
    dFr = dF[::-1].copy()
    U = np.ones(n + 1)
    den = 1.0 - 0.5 * dF[0] if dF.size else 1.0
    for i in range(1, n + 1):
        right = float(np.dot(dFr[n - i:], U[:i]))
        left = float(np.dot(dFr[n - i: n - 1], U[1:i]))
        U[i] = (1.0 + 0.5 * (right + left)) / den
    return U


def renewal_function(cycle_cdf, t_max: float, dt: float):
    """Expected renewal count U(t), counting the renewal at time zero.

    Solves U = 1 + F * U on a uniform grid with a trapezoid-weighted
    Riemann-Stieltjes rule (second order in dt).  ``cycle_cdf`` maps a time
    grid to cdf values.  U(0) = 1, and exp(1) cycles give U(t) = 1 + t.

    Returns (t, U).
    """
    if not (dt > 0 and t_max >= dt):
        raise ValueError("need 0 < dt <= t_max")
    n = int(round(t_max / dt))
    t = np.arange(n + 1) * dt
    F = np.clip(np.asarray(cycle_cdf(t), dtype=float), 0.0, 1.0)
    dF = np.clip(np.diff(F), 0.0, None)
    return t, _solve_renewal(dF)


def _conv_trap(kern: np.ndarray, dens: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid-rule grid convolution int_0^t kern(t - s) dens(s) ds."""
    full = signal.fftconvolve(kern, dens)[: kern.size]
    return step * (full - 0.5 * kern * dens[0] - 0.5 * kern[0] * dens)


def _mean_pulse_grid(model: RegenModel, t: np.ndarray) -> np.ndarray:
    """G1(t) = E[W(t); t < Z]: the pulse seen from the cycle start."""
    p = model.pulse
    if p.kind == "on-off":
        return np.asarray(p.Zon.survival(t), dtype=float)
    if p.kind == "workload":
        return np.asarray(p.Zon.integrated_survival(t), dtype=float)
    if p.kind == "renewal-reward":
        if p.reward.kind == "independent":
            return p.reward.dist.mean() * np.asarray(p.Z.survival(t), dtype=float)
        lo_sup = p.Z.x_min if getattr(p.Z, "kind", "") == "pareto-exact" else 0.0

        def one(ti):
            val, _ = integrate.quad(
                lambda zz: float(p.reward.cond_mean(zz)) * float(p.Z.pdf(zz)),
                max(float(ti), lo_sup), np.inf, limit=200,
            )
            return val

        return np.array([one(ti) for ti in t])
    return np.asarray(p.A.laplace(t), dtype=float) * np.asarray(p.R.survival(t), dtype=float)


def _end_pulse_grid(model: RegenModel, t: np.ndarray, step: float) -> np.ndarray:
    """G0(t) = E[W(Z - t); t < Z]: the pulse seen from the cycle end."""
    p = model.pulse
    if p.kind in ("on-off", "workload"):
        f_off = np.asarray(p.Zoff.pdf(t), dtype=float)
        if p.kind == "on-off":
            kern = np.asarray(p.Zon.survival(t), dtype=float)
        else:
            kern = t * np.asarray(p.Zon.survival(t), dtype=float)
        return _conv_trap(kern, f_off, step)
    if p.kind == "renewal-reward":
        return _mean_pulse_grid(model, t)  # the mark is constant over its cycle
    xm = p.R.x_min

    def one(ti):
        cut = max(xm - float(ti), 0.0)

        def f(v):
            return float(p.A.laplace(v)) * float(p.R.pdf(v + float(ti)))

        head, _ = integrate.quad(f, 0.0, cut + 1.0, limit=200,
                                 points=[cut] if cut > 0.0 else None)
        tail, _ = integrate.quad(f, cut + 1.0, np.inf, limit=200)
        return head + tail

    return np.array([one(ti) for ti in t])


def _cycle_cdf_grid(model: RegenModel, t: np.ndarray, step: float) -> np.ndarray:
    p = model.pulse
    if p.kind in ("on-off", "workload"):
        f_off = np.asarray(p.Zoff.pdf(t), dtype=float)
        F_on = np.asarray(p.Zon.cdf(t), dtype=float)
        return np.clip(_conv_trap(F_on, f_off, step), 0.0, 1.0)
    if p.kind == "renewal-reward":
        return np.asarray(p.Z.cdf(t), dtype=float)
    return np.asarray(p.R.cdf(t), dtype=float)


def _within_pulse_grid(model: RegenModel, t: np.ndarray) -> np.ndarray:
    """R(t): the covariance carried by a single pulse, exact per family.

    R(t) is the cycle-average of E[W(u) W(u + t); u + t < Z] over u > 0.
    """
    p = model.pulse
    mu = model.mu
    if p.kind == "on-off":
        return np.asarray(p.Zon.integrated_survival(t), dtype=float) / mu
    if p.kind == "workload":
        out = np.empty(t.size)
        for i, ti in enumerate(t):
            ti = float(ti)
            s = float(p.Zon.survival(ti))
            pm1 = p.Zon.partial_moment(1.0, ti)
            pm2 = p.Zon.partial_moment(2.0, ti)
            pm3 = p.Zon.partial_moment(3.0, ti)
            cubic = pm3 - 3.0 * ti * pm2 + 3.0 * ti * ti * pm1 - ti**3 * s
            square = pm2 - 2.0 * ti * pm1 + ti * ti * s
            out[i] = cubic / 3.0 + ti * square / 2.0
        return out / mu
    if p.kind == "renewal-reward":
        if p.reward.kind == "independent":
            iso = np.asarray(p.Z.integrated_survival(t), dtype=float)
            return p.reward.dist.moment(2.0) * iso / mu
        lo_sup = p.Z.x_min if getattr(p.Z, "kind", "") == "pareto-exact" else 0.0

        def one(ti):
            val, _ = integrate.quad(
                lambda zz: float(p.reward.cond_moment2(zz)) * (zz - float(ti)) * float(p.Z.pdf(zz)),
                max(float(ti), lo_sup), np.inf, limit=200,
            )
            return val

        return np.array([one(ti) for ti in t]) / mu
    xm = p.R.x_min

    def one(ti):
        ti = float(ti)
        cut = max(xm - ti, 0.0)

        def f(u):
            return float(p.A.laplace(2.0 * u + ti)) * float(p.R.survival(u + ti))

        head, _ = integrate.quad(f, 0.0, cut + 1.0, limit=200,
                                 points=[cut] if cut > 0.0 else None)
        tail, _ = integrate.quad(f, cut + 1.0, np.inf, limit=200)
        return head + tail

    return np.array([one(ti) for ti in t]) / mu


def _recurrence_grid(model: RegenModel, t_max: float, step: float):
    """One resolution of the renewal-convolution part: (t, U, z, G0, G1, h)."""
    n = int(round(t_max / step))
    t = np.arange(n + 1) * step
    G1 = _mean_pulse_grid(model, t)
    G0 = _end_pulse_grid(model, t, step)
    z = _conv_trap(G0, G1, step)
    dF = np.clip(np.diff(_cycle_cdf_grid(model, t, step)), 0.0, None)
    U = _solve_renewal(dF)
    dU = np.diff(U)
    # trapezoid pairing of the U increments with the two bracketing z values
    conv = signal.fftconvolve(z, dU)[: n + 1]
    inner = 0.5 * (np.concatenate(([0.0], conv[:n])) + np.concatenate(([0.0], conv[1:])))
    ex = model.mean_rate
    h = (z + inner) / model.mu - ex * ex
    return t, U, z, G0, G1, h


def _cycle_tail(model: RegenModel):
    """(alpha, c) with P(cycle > t) ~ c t^(-alpha); (inf, 0) when no leg is regularly varying."""
    p = model.pulse
    if p.kind in ("on-off", "workload"):
        legs = [leg for leg in (p.Zon, p.Zoff) if isinstance(leg, RegVaryingDist)]
        if not legs:
            return math.inf, 0.0
        alpha = min(leg.alpha for leg in legs)
        return alpha, sum(leg.tail_constant() for leg in legs if leg.alpha == alpha)
    law = p.Z if p.kind == "renewal-reward" else p.R
    if not isinstance(law, RegVaryingDist):
        return math.inf, 0.0
    return law.alpha, law.tail_constant()


@dataclass(frozen=True)
class CovDecomposition:
    """Stationary covariance Cov(t) = R(t) + h(t) on a uniform grid.

    R carries the within-pulse part (exact per family).  h carries the
    cycle-recurrence part, built from the renewal function U of the
    cycle-length law and the boundary kernels G0 (pulse seen from the cycle
    end) and G1 (pulse seen from the cycle start) through their convolution
    z.  The h grid is solved at two resolutions with second-order trapezoid
    rules and Richardson extrapolated; ``richardson_err`` records the size
    of the applied correction, a proxy for the remaining discretization
    error.

    ``h_asymptote`` is the predicted coefficient of t^(-(alpha - 1)) in h,
    (c_Z * m / mu - c_star) / ((alpha - 1) * mu^2) with m the squared mean
    cycle mass and c_star the tail constant of z, when that bookkeeping
    applies; otherwise None with a note in ``caveats``.
    """

    t: np.ndarray
    dt: float
    R: np.ndarray
    h: np.ndarray
    z: np.ndarray
    G0: np.ndarray
    G1: np.ndarray
    U: np.ndarray
    mu: float
    mean_rate: float
    c_star: float
    m: float
    h_asymptote: object
    richardson_err: float
    caveats: tuple

    @property
    def cov(self) -> np.ndarray:
        return self.R + self.h


def cov_decomposition(model: RegenModel, t_max: float, dt: float) -> CovDecomposition:
    """Covariance split Cov = R + h of a stationary regenerative source.

    Grids run over [0, t_max] with spacing dt.  The recurrence part is
    solved at dt and dt/2 with trapezoid-weighted Riemann-Stieltjes rules
    and Richardson extrapolated; the within-pulse part R is exact (closed
    form or adaptive quadrature per family).  Two-leg families need a density on
    the idle leg; the workload family needs a busy-leg tail index above 3
    for its cubic partial moments.
    """
    if not (dt > 0 and t_max >= 10 * dt):
        raise ValueError("need 0 < dt <= t_max / 10")
    p = model.pulse
    if p.kind in ("on-off", "workload") and not hasattr(p.Zoff, "pdf"):
        raise ValueError("the covariance decomposition needs a density for the idle leg")
    if p.kind == "workload" and not p.Zon.alpha > 3.0:
        raise ValueError("the workload covariance needs a busy-leg tail index above 3")
    tc, _, _, _, _, hc = _recurrence_grid(model, t_max, dt)
    _, Uf, zf, G0f, G1f, hf = _recurrence_grid(model, t_max, dt / 2.0)
    # the grid rules are second order, so the halved step removes 3/4 of the error
    h = (4.0 * hf[::2] - hc) / 3.0
    rich = float(np.max(np.abs(hf[::2] - hc))) / 3.0
    R = _within_pulse_grid(model, tc)

    mu = model.mu
    mu_w = pulses.mean_mass(p)
    m = mu_w * mu_w
    alpha, c_z = _cycle_tail(model)
    caveats = []
    c_star = 0.0
    if not np.isfinite(alpha):
        h_asym = None
        caveats.append("cycle law is not regularly varying; no power-tail asymptote")
    elif p.kind == "workload":
        c_star = math.nan
        h_asym = None
        caveats.append(
            "draining-workload boundary kernels decay one power slower than the cycle "
            "tail, so the z-tail bookkeeping behind the h asymptote does not apply"
        )
    else:
        if p.kind == "on-off":
            on_heavy = isinstance(p.Zon, RegVaryingDist) and p.Zon.alpha == alpha
            c_star = 2.0 * p.Zon.tail_constant() * p.Zon.mean() if on_heavy else 0.0
        elif p.kind == "renewal-reward":
            w1 = p.reward.limit_expect(lambda w: w)
            c_star = 2.0 * c_z * w1 * mu_w
        h_asym = (c_z * m / mu - c_star) / ((alpha - 1.0) * mu * mu)
    return CovDecomposition(
        t=tc, dt=dt, R=R, h=h, z=zf[::2], G0=G0f[::2], G1=G1f[::2], U=Uf[::2],
        mu=mu, mean_rate=model.mean_rate, c_star=c_star, m=m,
        h_asymptote=h_asym, richardson_err=rich, caveats=tuple(caveats),
    )


# -- the scaling table --------------------------------------------------------------


def _telecom_limit_logchf(mass_scale: float, alpha: float, c_z: float, mu: float):
    def logchf(theta, x=1.0, y=1.0):
        return y * telecom_logchf(theta * mass_scale, x, alpha, c_z, mu)

    return logchf


def regime_of(model: RegenModel, gamma: float) -> RegimeSpec:
    """Scaling-table entry for the aggregated source at count-growth exponent gamma.

    The constants sit on the per-cycle centered masses (see
    ``tilde_mass_sample``): their tails c_plus and c_minus, divided by the
    mean cycle length, parametrize the slow-regime stable sheet; the
    covariance tail constant c_X drives the fast-regime fractional Brownian
    sheet; and at the critical exponent gamma0 = alpha - 1 the limit is the
    intermediate field with log characteristic function
    y * telecom_logchf(theta * s, x, alpha, c_Z, mu), where s is the signed
    mean mass of the light part of the cycle.  Critical-regime entries exist
    only when one side of the cycle is strictly lighter than the other;
    otherwise this raises with the reason.
    """
    p = model.pulse
    kind = p.kind
    if kind == "workload":
        raise ValueError(
            "draining-workload pulses exceed every fixed bound, so the bounded-reward "
            "scaling table does not cover them"
        )
    mu = model.mu
    mu_w = pulses.mean_mass(p)
    if kind == "on-off":
        mu_on, mu_off = p.Zon.mean(), p.Zoff.mean()
        on_rv = isinstance(p.Zon, RegVaryingDist)
        off_rv = isinstance(p.Zoff, RegVaryingDist)
        if not (on_rv or off_rv):
            raise ValueError("the on-off scaling table needs a regularly varying leg")
        a_on = p.Zon.alpha if on_rv else math.inf
        a_off = p.Zoff.alpha if off_rv else math.inf
        alpha = min(a_on, a_off)
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"the heavy leg needs a tail index in (1, 2), got {alpha}")
        c_on = p.Zon.tail_constant() if a_on == alpha else 0.0
        c_off = p.Zoff.tail_constant() if a_off == alpha else 0.0
        c_x = (c_on * mu_off**2 + c_off * mu_on**2) / ((alpha - 1.0) * mu**3)
        c_plus = (mu_off / mu) ** alpha * c_on
        c_minus = (mu_on / mu) ** alpha * c_off
        if a_on == a_off:
            crit = None
            crit_reason = (
                "critical-regime limit unavailable: both legs share the tail index, so "
                "neither is light enough to act as the bounded mark on the other's cycles"
            )
        elif a_on < a_off:
            # busy leg drives; represent the source through the lighter idle leg
            crit = (-mu_off, c_on)
        else:
            # idle leg drives; the busy indicator is the light mark
            crit = (mu_on, c_off)
    elif kind == "renewal-reward":
        if not isinstance(p.Z, RegVaryingDist):
            raise ValueError("the renewal-reward scaling table needs a regularly varying cycle law")
        alpha = p.Z.alpha
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"the cycle tail index must lie in (1, 2), got {alpha}")
        c_z = p.Z.tail_constant()
        ex = mu_w / mu
        # collapsing the three covariance-tail terms into one centered second
        # moment keeps c_X exactly zero for constant rewards
        c_x = c_z * p.reward.limit_expect(lambda w: (w - ex) ** 2) / ((alpha - 1.0) * mu)
        c_plus = c_z * p.reward.limit_expect(lambda w: max(w - ex, 0.0) ** alpha)
        c_minus = c_z * p.reward.limit_expect(lambda w: max(ex - w, 0.0) ** alpha)
        if p.reward.kind == "coupled" and p.reward.limit_dist is None:
            crit = (mu_w, c_z)
        else:
            crit = None
            crit_reason = (
                "critical-regime limit unavailable: the reward does not vanish on long "
                "cycles (it needs a coupled reward whose large-cycle limit is zero)"
            )
    elif kind == "exp-damped":
        alpha = p.R.alpha
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"the duration tail index must lie in (1, 2), got {alpha}")
        c_z = p.R.tail_constant()
        c_x = c_z * mu_w**2 / ((alpha - 1.0) * mu**3)
        c_plus = 0.0
        c_minus = c_z * (mu_w / mu) ** alpha
        crit = (mu_w, c_z)
    else:
        raise ValueError(f"no scaling table for pulse family {kind!r}")

    h1 = (3.0 - alpha) / 2.0
    constants = {"c_X": c_x, "H1": h1, "c_plus": c_plus, "c_minus": c_minus}

    def intermediate():
        if crit is None:
            raise ValueError(crit_reason)
        mass_scale, c_drive = crit
        return ({"c_Z": c_drive, "mu": mu, "prefactor": -mass_scale / mu},
                _telecom_limit_logchf(mass_scale, alpha, c_drive, mu))

    return build_regime(gamma, alpha - 1.0, alpha, constants, (c_plus / mu, c_minus / mu), intermediate)
