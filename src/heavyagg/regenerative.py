"""Regenerative sources: cycle samplers, covariance decomposition, scaling constants.

A regenerative source restarts from scratch at renewal epochs: within each
cycle of length Z the process follows a reward kernel W(t) (an indicator, a
draining workload, a constant mark, an exponential decay) and the next cycle
begins when the current one ends.  The path samplers start it in steady
state, inside a length-biased cycle at a uniform age.  Cycles are drawn and
integrated by the per-family kernels of the pulses module, the same ones
shot noise uses.

Three groups of tools live here:

* exact-in-law samplers: the windowed integrals of the stationary source
  (``integrated_path``, the path the aggregation runs), read off one block
  walk over the cycles of every lane, which draws an idle leg that can sum
  its own draws (exponential, degenerate) as one sum per lane and block and
  splits it only where the block is read; and fresh cycle lengths and masses
  (``cycle_sample``);
* a covariance decomposition Cov(t) = R(t) + h(t) on a uniform grid, where
  R keeps the within-pulse part and h carries the cycle-recurrence part
  through the renewal function of the cycle-length law and the two
  boundary kernels of the pulse.  The pulses module owns the per-family
  moments it reads (R is ``pulses.cov_integral`` over the mean cycle
  length, the start kernel G1 is ``pulses.mean_pulse``); only the end
  kernel G0 and the cycle law are built here;
* ``regime_of``: the family constants of the scaling table (cycle tail,
  covariance and jump tail constants, the critical-regime Telecom route),
  which the regimes module turns into the limit law for a source-count
  growth exponent gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import pulses
from .heavy_tail import RegVaryingDist
from .heavy_tail import sample_length_biased_pair  # noqa: F401  (bench/layers.py traces this attribute)
from .limit_fields import telecom_logchf
from .regimes import RegimeSpec, build_regime

__all__ = [
    "RegenModel",
    "CovDecomposition",
    "cycle_sample",
    "integrated_path",
    "cov_decomposition",
    "regime_of",
]

_FAMILIES = ("on-off", "workload", "renewal-reward", "exp-damped")

# per-pass working set of integrated_path in cycle cells (lanes times block
# length).  On on-off traffic with exponential idle legs and 300 lanes of
# about 44k cycles each (2-vCPU x86 host, 15 interleaved rounds), 1 << 13
# cells ran 1.5x slower than this (1.1x-1.9x per round) and 1 << 17 1.25x
# slower (1.1x-1.4x) for 6 MB more traced peak memory
BLOCK_CELL_BUDGET = 1 << 15
# cycles drawn per lane and pass, relative to the expected number still needed:
# heavy-tailed cycle sums fall short of their mean more often than not, so a
# block of exactly the expected size would leave most lanes for another pass
BLOCK_MARGIN = 1.25


# -- the model wrapper ------------------------------------------------------------


@dataclass(frozen=True)
class RegenModel:
    """A stationary regenerative source built on one cycle pulse family.

    Accepts the on-off, workload, renewal-reward and exp-damped families (for
    the last one the cycle length is the pulse duration itself).  Cycle legs
    must have finite means; the workload family additionally needs a
    square-integrable busy leg so the mean state exists.
    """

    pulse: object

    def __post_init__(self) -> None:
        kind = getattr(self.pulse, "kind", None)
        if kind not in _FAMILIES:
            raise ValueError(f"no regenerative treatment for pulse family {kind!r}")
        pulses.duration_mean(self.pulse)  # raises if any leg has an infinite mean
        if kind == "workload":
            self.pulse.Zon.moment(2.0)  # the mean state needs a square-integrable busy leg

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


def cycle_sample(model: RegenModel, rng: np.random.Generator, size):
    """(cycle lengths z, integrated cycle masses) of ``size`` fresh cycles.

    The centered masses ``mass - model.mean_rate * z`` are the per-cycle
    jumps behind the slow-growth stable limit; their two tails carry the
    constants reported by the scaling table.
    """
    kern = pulses.KERNELS[model.kind]
    z, aux = kern.fresh(model.pulse, rng, size)
    mass = kern.mass(aux, 0.0, z)
    return z, mass


def _running_sum(start, steps):
    """start + cumulative sums of ``steps`` down axis 0, added in row order.

    Row i is ((start + steps[0]) + steps[1]) + ... + steps[i] in both
    branches, so they agree bitwise with each other and with ``_row_total``.
    numpy's accumulate walks each column separately: with fewer columns than
    rows that is the cheaper walk, while with long rows one vector add per
    row costs several times less.
    """
    if steps.shape[1] < steps.shape[0]:
        return np.cumsum(np.vstack((start, steps)), axis=0)[1:]
    out = np.empty_like(steps)
    np.add(start, steps[0], out=out[0])
    for row in range(1, steps.shape[0]):
        np.add(out[row - 1], steps[row], out=out[row])
    return out


def _row_total(start, steps):
    """The last row of ``_running_sum(start, steps)``, bitwise, without the others.

    One reduce call instead of one add per row.  numpy reduces a C-ordered
    block of two or more columns down its rows in row order, but a single
    column pairwise, so that column takes the accumulate; numpy does not
    document either order, and ``test_running_sum_and_row_total_add_in_row_order``
    pins both.
    """
    rows = np.vstack((start, steps))
    if rows.shape[1] == 1:
        return np.cumsum(rows, axis=0)[-1]
    return np.add.reduce(rows, axis=0)


def _walk_cycles(model: RegenModel, cuts: np.ndarray, rng: np.random.Generator, n_lanes: int) -> np.ndarray:
    """Every lane's integrated path at every cut; shape (n_lanes, cuts.size).

    ``cuts`` are strictly increasing and positive.  The cycle covering a cut
    t is the one with start <= t < end, so a cut equal to a cycle end is read
    in the next cycle.  The path at t is the path where the lane entered its
    covering cycle plus the cycle's mass from the entry (its age at time 0
    for the cycle covering time 0, else 0) up to t, clipped to the cycle.

    Every lane starts stationary: inside a length-biased cycle at a uniform
    age, drawn by the family's ``aged`` kernel.

    Cycles are drawn in blocks.  Each pass gives every lane that has not yet
    passed the last cut K fresh cycles, with K sized from the expected
    number still needed and capped at ``BLOCK_CELL_BUDGET`` // lanes (but at
    least one).  Row-order totals of the block give each lane's end and
    integrated path after it; only lanes whose block passes their first
    unread cut (the hit lanes) are read, and only their blocks get running
    sums, which place the cycle ends and the integrated path at them.
    Cycles ending past the last cut are discarded, which leaves the law
    exact because fresh cycles are iid and independent of the path so far.

    When the idle leg of a two-leg family can sum its own draws
    (``sum_sample``), a pass draws the K busy legs of every lane but only
    one idle-leg sum per lane: a fresh cycle's mass is read off its busy
    leg alone, and a lane that is not read needs only the sum.  Hit lanes
    get their K idle legs back from the law's ``split_sum`` given the sum,
    which is exact in law, and no other lane draws them.  Either way a hit
    lane carries on from the last row of its running sums, so its state is
    the one its readings saw; a lane that is not read carries on from its
    row totals, which add in the running sums' order.
    """
    kern = pulses.KERNELS[model.kind]
    idle = getattr(model.pulse, "Zoff", None)
    summed = hasattr(idle, "sum_sample")
    horizon = cuts[-1]
    out = np.zeros((n_lanes, cuts.size))
    # lane state: the end of the last placed cycle and the integrated path there
    age, z, aux = kern.aged(model.pulse, rng, n_lanes)
    end = z - age
    mass = kern.mass(aux, age, z)
    lane, j = np.nonzero(cuts < end[:, None])
    # the path is 0 where a lane enters its first cycle
    out[lane, j] = 0.0 + kern.mass(aux[lane], age[lane], np.minimum(cuts[j] + age[lane], z[lane]))
    next_cut = np.append(cuts, np.inf)  # next_cut[filled]: a lane's first unread cut
    filled = np.searchsorted(cuts, end)
    active = np.flatnonzero(end <= horizon)
    while active.size:
        need = (horizon - end[active].min()) / model.mu
        k = max(1, min(math.ceil(BLOCK_MARGIN * need), BLOCK_CELL_BUDGET // active.size))
        # row i holds the i-th new cycle of every active lane
        if summed:
            # the mark is the busy leg, and a cycle's mass ends with it; an
            # on-off cycle's mass is the busy leg itself
            aux = model.pulse.Zon.sample(rng, k * active.size).reshape(k, active.size)
            m = aux if model.kind == "on-off" else kern.mass(aux, 0.0, aux)
            idle_sums = idle.sum_sample(rng, k, active.size)
            last = _row_total(end[active], aux)
            last += idle_sums
        else:
            z, aux = kern.fresh(model.pulse, rng, k * active.size)
            z, aux = z.reshape(k, active.size), aux.reshape(k, active.size)
            m = kern.mass(aux, 0.0, z)
            last = _row_total(end[active], z)
        last_mass = _row_total(mass[active], m)
        # only lanes whose block passes their first unread cut have cuts to read
        hit = np.flatnonzero(last > next_cut[filled[active]])
        lanes = active[hit]
        z_hit = aux[:, hit] + idle.split_sum(rng, idle_sums[hit], k) if summed else z[:, hit]
        ends, masses = _running_sum(end[lanes], z_hit), _running_sum(mass[lanes], m[:, hit])
        # cycle i of hit lane c covers the cuts with indices in [lo[i, c], hi[i, c])
        hi = np.searchsorted(cuts, ends)
        lo = np.vstack((filled[lanes], hi[:-1]))
        i, c = np.nonzero(hi > lo)
        reps = hi[i, c] - lo[i, c]
        first = np.repeat(np.cumsum(reps) - reps, reps)
        i, c = np.repeat(i, reps), np.repeat(c, reps)
        j = lo[i, c] + np.arange(first.size) - first
        start = np.where(i > 0, ends[i - 1, c], end[lanes[c]])
        before = np.where(i > 0, masses[i - 1, c], mass[lanes[c]])
        out[lanes[c], j] = before + kern.mass(aux[i, hit[c]], 0.0, np.minimum(cuts[j] - start, z_hit[i, c]))
        filled[lanes] = hi[-1]
        # a hit lane carries on from the cycle ends its readings saw
        last[hit] = ends[-1]
        end[active], mass[active] = last, last_mass
        active = active[last <= horizon]
    return out


def integrated_path(model: RegenModel, cuts, rng: np.random.Generator, n_lanes: int):
    """Window increments of the integrated stationary source along one path per lane.

    ``cuts`` are strictly increasing, positive, finite times; window j covers
    (cuts[j-1], cuts[j]] with the first window opening at 0.  Returns shape
    (n_lanes, len(cuts)).  All windows of a lane are slices of the same cycle
    sequence, so cumulative row sums form a consistent integrated path.  Each
    lane starts inside a length-biased cycle at a uniform age.

    This is the sampler the aggregation runs for regenerative sources.  The
    path at a cut is the mass of the cycles ending before it plus the
    partial mass of the cycle that covers it, read off the block cycle walk.
    """
    cuts = nm.strict_grid("cuts", cuts)
    if n_lanes < 1:
        raise ValueError("n_lanes must be at least 1")
    return np.diff(_walk_cycles(model, cuts, rng, n_lanes), axis=1, prepend=0.0)


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


def _conv_trap(kern: np.ndarray, dens: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid-rule grid convolution int_0^t kern(t - s) dens(s) ds."""
    full = np.convolve(kern, dens)[: kern.size]
    return step * (full - 0.5 * kern * dens[0] - 0.5 * kern[0] * dens)


def _end_pulse_grid(model: RegenModel, t: np.ndarray, step: float) -> np.ndarray:
    """G0(t) = E[W(Z - t); t < Z]: the pulse seen from the cycle end (not for
    renewal rewards, whose constant mark makes G0 the mean pulse G1)."""
    p = model.pulse
    if p.kind in ("on-off", "workload"):
        f_off = np.asarray(p.Zoff.pdf(t), dtype=float)
        if p.kind == "on-off":
            kern = np.asarray(p.Zon.survival(t), dtype=float)
        else:
            kern = t * np.asarray(p.Zon.survival(t), dtype=float)
        return _conv_trap(kern, f_off, step)

    def one(ti):
        def f(v):
            return float(p.A.laplace(v)) * float(p.R.pdf(v + ti))

        # split where the duration density jumps and one unit past it
        cut = max(p.R.x_min - ti, 0.0)
        edges = (0.0, cut, cut + 1.0, np.inf)[0 if cut > 0.0 else 1:]
        return sum(nm.checked_quad(f, lo, hi, "exp-damped end pulse") for lo, hi in zip(edges, edges[1:]))

    return np.array([one(float(ti)) for ti in t])


def _cycle_cdf_grid(model: RegenModel, t: np.ndarray, step: float) -> np.ndarray:
    p = model.pulse
    if p.kind in ("on-off", "workload"):
        f_off = np.asarray(p.Zoff.pdf(t), dtype=float)
        F_on = np.asarray(p.Zon.cdf(t), dtype=float)
        return np.clip(_conv_trap(F_on, f_off, step), 0.0, 1.0)
    if p.kind == "renewal-reward":
        return np.asarray(p.Z.cdf(t), dtype=float)
    return np.asarray(p.R.cdf(t), dtype=float)


def _recurrence_grid(model: RegenModel, t_max: float, step: float):
    """One resolution of the renewal-convolution part: (t, U, z, G0, G1, h)."""
    n = int(round(t_max / step))
    t = np.arange(n + 1) * step
    G1 = pulses.mean_pulse(model.pulse, t)
    G0 = G1 if model.kind == "renewal-reward" else _end_pulse_grid(model, t, step)
    z = _conv_trap(G0, G1, step)
    dF = np.clip(np.diff(_cycle_cdf_grid(model, t, step)), 0.0, None)
    U = _solve_renewal(dF)
    dU = np.diff(U)
    # trapezoid pairing of the U increments with the two bracketing z values
    conv = np.convolve(z, dU)[: n + 1]
    inner = 0.5 * (np.concatenate(([0.0], conv[:n])) + np.concatenate(([0.0], conv[1:])))
    ex = model.mean_rate
    h = (z + inner) / model.mu - ex * ex
    return t, U, z, G0, G1, h


@dataclass(frozen=True)
class CovDecomposition:
    """Stationary covariance Cov(t) = R(t) + h(t) on a uniform grid.

    R carries the within-pulse part.  h carries the cycle-recurrence part,
    built from the renewal function U of the cycle-length law and the
    boundary kernels G0 (pulse seen from the cycle end) and G1 (pulse seen
    from the cycle start) through their convolution z.  The h grid is solved
    at two resolutions with second-order trapezoid rules and Richardson
    extrapolated; ``richardson_err`` records the size of the applied
    correction, a proxy for the remaining discretization error.  Where
    ``regime_of`` has an entry, its c_X is the constant of the power tail
    Cov(t) ~ c_X * t**(1 - alpha).
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
    richardson_err: float

    @property
    def cov(self) -> np.ndarray:
        return self.R + self.h


def cov_decomposition(model: RegenModel, t_max: float, dt: float) -> CovDecomposition:
    """Covariance split Cov = R + h of a stationary regenerative source.

    Grids run over [0, t_max] with spacing dt.  The recurrence part is
    solved at dt and dt/2 with trapezoid-weighted Riemann-Stieltjes rules
    and Richardson extrapolated.  The within-pulse part R =
    ``pulses.cov_integral`` / mu and the kernels G1 = ``pulses.mean_pulse``
    and G0 are exact at each grid point: closed form or adaptive quadrature
    per family, and every quadrature raises above its error bound.  Two-leg
    families need a density on the idle leg; the workload family needs a
    busy-leg tail index above 3 for its cubic partial moments.
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
    R = pulses.cov_integral(p, tc) / model.mu
    return CovDecomposition(
        t=tc, dt=dt, R=R, h=h, z=zf[::2], G0=G0f[::2], G1=G1f[::2], U=Uf[::2],
        mu=model.mu, mean_rate=model.mean_rate, richardson_err=rich,
    )


# -- the scaling table --------------------------------------------------------------


def regime_of(model: RegenModel, gamma: float) -> RegimeSpec:
    """Scaling-table entry for the aggregated source at count-growth exponent gamma.

    The constants sit on the per-cycle centered masses (``mass - mean_rate
    * z`` from ``cycle_sample``): their tails c_plus and c_minus, divided by
    the mean cycle length, parametrize the slow-regime stable sheet; the
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
                lambda theta, x=1.0, y=1.0: y * telecom_logchf(theta * mass_scale, x, alpha, c_drive, mu))

    return build_regime(gamma, alpha - 1.0, alpha, constants, (c_plus / mu, c_minus / mu), intermediate)
