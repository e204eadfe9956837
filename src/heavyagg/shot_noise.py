"""Poisson shot noise: stationary superposition of pulses at Poisson arrivals of any rate.

The input process is X(t) = sum_j W_j(t - T_j) over a stationary Poisson
arrival stream.  Its one path sampler, ``integrated_path_batch``, draws
exact-in-law samples of the windowed integrals int X(t) dt over consecutive
windows: arrivals inside each window are a Poisson(rate * width) batch with
uniform positions, and pulses already alive at the first window's start are
a Poisson(rate * E[D]) batch whose (age, duration) pairs come from the exact
length-biased device.  A mixture of pulse families samples as the
superposition of one source per component (Poisson thinning).  No
truncation horizon is involved anywhere.  Only the counts are drawn for the
whole call; the pulses themselves are walked in fixed blocks of
``PULSE_BLOCK``, so the memory of a call is its output and its per-cell
counts plus one block's temporaries, however many replicates it
draws.  A block's pulses come in runs that share a first window, and each
run's first-window masses go in as one sum.  Every pulse is evaluated only
on the windows it touches: a pulse that arrives inside its first window
covers it from its own start, so only pulses alive at time zero carry an
age into it, and only pulses that outlive their first window are placed on
later ones.  Deterministic pulses go through the per-family kernels of the
pulses module, Brownian pulses through a Gaussian recursion that carries
the path value from window to window.  A single window (0, T] is the
one-cut path ``integrated_path_batch(src, [T], ...)[:, 0]``.

It also carries the family constants of the scaling table (the critical
growth exponent gamma0, the exponents and tail constants that the regimes
module turns into the three limit laws), the covariance function (the
rate times the pulses module's per-family covariance integral), its time
integral, and the characteristic function of the intermediate
(critical-regime) limit field.  That chf runs every family on one fixed rule
(shared duration nodes, a per-family arrival integral) at two orders and
raises when they disagree; the Telecom field's chf in limit_fields is its
unit-rectangle case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import pulses as pl
from .heavy_tail import DegenerateDist, UniformDist
from .heavy_tail import sample_length_biased_pair  # noqa: F401  (bench/layers.py traces this attribute)
from .regimes import RegimeSpec, build_regime

__all__ = [
    "ShotNoiseSource",
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
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        for m in self.pulse.components if self.pulse.kind == "mixture" else (self.pulse,):
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

    @property
    def mean_duration(self) -> float:
        return pl.duration_mean(self.pulse)

    def mean_level(self) -> float:
        """E X(t) = rate * int_0^inf E W(u) du, by closed form or quadrature."""
        return self.rate * pl.mean_mass(self.pulse)


# -- batched exact sampling ----------------------------------------------------------


def _brownian_cells(lo, hi, lo_more, hi_more, pulse, step, rng):
    """Window integrals of Brownian pulses on their first and continuation cells.

    Pulse i spans the pulse-local stretch (lo[i], hi[i]] of its first cell
    (``lo`` may be the scalar 0.0 of a fresh block); continuation cell c
    spans (lo_more[c], hi_more[c]] of pulse number pulse[c] and is that
    pulse's step[c]-th cell after the first.  Given the path value beta at
    the start of a stretch of length h, the integral over the stretch and
    the value at its end are jointly Gaussian: beta * h + h^1.5 (z1 / 2 +
    z2 / sqrt(12)) and beta + sqrt(h) z1.  One pair of normals per cell; the
    value at a pulse's first start is N(0, lo), drawn only for aged pulses
    (fresh ones start at lo = 0), and a segmented cumulative sum of the
    sqrt(h) z1 steps carries it over the continuation cells.  Outside its
    support a pulse is zero, so cells it does not touch need no draws.
    """
    lo = np.broadcast_to(lo, hi.shape)
    h = np.concatenate((hi - lo, hi_more - lo_more))
    z1, z2 = rng.standard_normal((2, h.size))
    rise = np.sqrt(h) * z1
    beta = np.zeros(lo.size)
    aged = np.flatnonzero(lo > 0.0)
    beta[aged] = np.sqrt(lo[aged]) * rng.standard_normal(aged.size)
    # value at the start of a continuation cell: the end of the first cell
    # plus the rises of the pulse's earlier continuation cells
    more_rise = rise[lo.size:]
    before = np.cumsum(more_rise) - more_rise
    seg_first = np.arange(step.size) - (step - 1)
    beta = np.concatenate((beta, (beta + rise[:lo.size])[pulse] + before - before[seg_first]))
    vals = beta * h + h**1.5 * (0.5 * z1 + z2 / math.sqrt(12.0))
    return vals[:lo.size], vals[lo.size:]


def _continuation_cells(more, cells, run_ends, start, d, lows, cuts):
    """The windows pulses touch after their first one, as flat cells.

    ``more`` indexes the pulses that outlive their first window; the runs
    of a block's pulses end at run_ends and first touch cells, and the
    other arguments are as for ``_add_cells``.  Returns (pulse, step, cell,
    lo, hi) with one entry per continuation cell: the pulse's index, the
    cell's offset from the pulse's first cell, the flat cell and the cell's
    window (lo, hi] in pulse-local time, cut at the pulse end.  A continuation window starts after the
    pulse does and before it ends, so only its end needs the cut.  The cells
    of one pulse are consecutive and in time order.
    """
    nx = cuts.size
    # pulse p lies in the run of the first end past it
    cell = cells[np.searchsorted(run_ends, more, side="right")]
    first = cell % nx
    u = lows[first] + start[more]
    # the window holding the pulse end is the count of cuts strictly before it
    n_more = np.minimum(np.searchsorted(cuts, u + d[more]), nx - 1) - first
    owner = np.repeat(np.arange(more.size), n_more)
    # continuation cells of one pulse are windows first + 1, ..., first + n_more
    step = 1 + np.arange(owner.size) - np.repeat(np.cumsum(n_more) - n_more, n_more)
    window = first[owner] + step
    pulse = more[owner]
    u = u[owner]
    return pulse, step, cell[owner] + step, lows[window] - u, np.minimum(cuts[window] - u, d[pulse])


def _add_cells(out, model, d, m, lo, b, start, cells, share, lows, cuts, rng):
    """Add one block of realized pulses' window increments into the flat (rep, window) array out.

    The block's pulses come in runs: the share[k] consecutive pulses of
    entry k first touch the window whose flat index (rep * n_windows +
    window) is cells[k]; entries of zero share are skipped, and those of
    positive share have increasing cells, as the blocks of the path kernel
    build them.  Pulse i of one leaf family has duration d[i] and mark m[i],
    and its first window is (lo[i], b[i]] in pulse-local time, cut at the
    pulse end: a fresh pulse starts inside it (``lo`` is the scalar 0.0),
    an aged one at age lo[i] before its opening.  start[i] is the pulse's
    start less that opening (the offset s of a fresh pulse, minus the age
    of an aged one); only pulses that outlive their first window read it.
    Window j covers global time (lows[j], cuts[j]].

    A pulse is evaluated on its first window, and its masses go in as one
    sum per run.  Only when it outlives that window is its first cell looked
    up (a search on the run ends) and the pulse evaluated on each later
    window up to the one holding its end, so it costs O(1 + windows
    touched); with a single window there is no later one.  Only the
    per-cell evaluation depends on the family.  Deterministic families add
    and free their first-cell masses before the continuation cells are
    built, which keeps the two sets of arrays from being alive at once;
    Brownian pulses need both sets together for their path values.
    """
    runs = np.flatnonzero(share)
    run_len = share[runs]
    run_ends = np.cumsum(run_len)
    cells = cells[runs]
    more = np.flatnonzero(d > b) if cuts.size > 1 else np.empty(0, dtype=np.intp)
    hi = np.minimum(b, d)
    if model.kind == "brownian":
        pulse, step, cell, lo_more, hi_more = _continuation_cells(more, cells, run_ends, start, d, lows, cuts)
        head, tail = _brownian_cells(lo, hi, lo_more, hi_more, pulse, step, rng)
        out[cells] += np.add.reduceat(head, run_ends - run_len)
    else:
        mass = pl.KERNELS[model.kind].mass
        out[cells] += np.add.reduceat(mass(m, lo, hi), run_ends - run_len)
        del hi
        if not more.size:
            return
        pulse, step, cell, lo_more, hi_more = _continuation_cells(more, cells, run_ends, start, d, lows, cuts)
        tail = mass(m[pulse], lo_more, hi_more)
    out += np.bincount(cell, tail, out.size)


# Pulses per block of the path kernel.  Positions, durations and marks are
# drawn per block, so this value is part of every shot-noise draw order:
# changing it changes every sample.  A per-pulse temporary of one block
# is 128 KiB of float64: the few a block allocates stay inside L2 (2 MiB
# per core on the 2-vCPU Xeon measured), and glibc serves them from its
# heap, which blocks reuse, where full-length temporaries went through
# mmap and were page-faulted in afresh on every pass.  glibc maps requests
# from its mmap threshold up; that starts at 128 KiB and rises past the
# first mapping freed, so blocks of 1 << 14 sit at its edge.  On
# telecom-check, per warmed job: 4k blocks pay per-block Python overhead
# (3.0-3.3 s against 1.9-2.7 s at 8k-16k), 8k-12k take no minor page
# fault, and from 32k (256 KiB) the temporaries are mapped on every pass
# again (0.27-0.44M faults).  At 16k a warmed job takes 0.66k-0.83k minor
# faults on telecom-check and 0.64k-0.85k on shot-grid (seed 5, jobs 1-4).
PULSE_BLOCK = 1 << 14


def _pulse_blocks(counts):
    """Yield (entries, share) for consecutive blocks of PULSE_BLOCK pulses.

    counts[e] pulses belong to entry e, in entry order.  A block holds
    share[i] pulses of entry entries.start + i; an entry may straddle blocks.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    for p0 in range(0, total, PULSE_BLOCK):
        p1 = min(p0 + PULSE_BLOCK, total)
        # the first entry with a pulse at or after p0, the last with one before p1
        i0 = int(np.searchsorted(ends, p0, side="right"))
        i1 = int(np.searchsorted(ends, p1, side="left")) + 1
        yield slice(i0, i1), np.minimum(ends[i0:i1], p1) - np.maximum(starts[i0:i1], p0)


def integrated_path_batch(src: ShotNoiseSource, cuts, rng: np.random.Generator, n_rep: int, copies=1):
    """Stationary increments int_{c_{j-1}}^{c_j} X dt over shared pulses.

    ``cuts`` are finite, strictly increasing positive times c_1 < ... < c_n
    (the first window opens at 0).  Returns shape (n_rep, n_windows); each
    row's windows are evaluated on one set of pulses, so cumulative sums over a
    row form a consistent sample path of the integrated process.  Row r sums
    ``copies[r]`` independent copies of ``src`` (shape () or (n_rep,), finite
    and nonnegative): by Poisson superposition that is one source at rate
    ``src.rate * copies[r]``, which only the two count draws see, and a row of
    no copies is exact zeros.

    Arrival counts are drawn once per (rep, window) cell: Poisson(rate *
    width) uniform points in each cell.  That is the Poisson process on
    (0, c_n] restricted to disjoint windows, and it tells each new pulse's
    first window without a search.  Pulses alive at time zero are a
    Poisson(rate * E D) batch per replicate with exact stationary (age,
    duration) pairs, first touching window 0.  Both kinds are then walked in
    blocks of ``PULSE_BLOCK`` pulses: a block takes its share of each count
    (a cell's pulses may fall into two blocks), draws its pulses'
    positions, durations and marks, and adds their masses on the windows
    they touch.  Each positive share is one run of pulses with one first
    cell, so first-window masses go in as one sum per run, and a cell index
    is built only for the pulses that outlive their first window.  A new
    pulse is evaluated on its first window from its own start, (0, min(width
    - s, d)] in pulse-local time with s its offset in the window; a pulse
    alive at time zero covers (age, age + c_1], cut at its end.  A single
    window has one width, so its offsets need no per-pulse width and its
    pulses no continuation test.  So the memory of one call is the output
    and the counts plus temporaries of O(PULSE_BLOCK x windows touched per
    pulse), whatever ``n_rep`` is, and the cost is O(pulses + cells
    touched), not O(pulses * n_windows).  Brownian pulses
    go through the same cells and carry their path value from one touched
    window to the next.

    A mixture with weights w at rate q is, by Poisson thinning, the sum of
    independent component sources at rates q * w: one call per component of
    positive weight, in component order, and each block calls one family's
    kernel.
    """
    model = src.pulse
    if model.kind == "mixture":
        # Poisson thinning: a mixture at rate q is the superposition of
        # independent component sources at rates q * w, one call each
        return sum(integrated_path_batch(ShotNoiseSource(leaf, src.rate * w), cuts, rng, n_rep, copies)
                   for leaf, w in zip(model.components, model.weights) if w > 0)
    cuts = nm.strict_grid("cuts", cuts)
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    rate = src.rate * np.asarray(copies, dtype=float)
    if rate.shape not in ((), (n_rep,)) or not np.all(np.isfinite(rate) & (rate >= 0.0)):
        raise ValueError("copies must be finite, nonnegative, of shape () or (n_rep,)")
    mean_d = src.mean_duration
    if not math.isfinite(mean_d):
        raise ValueError("mean pulse duration must be finite")
    nx = cuts.size
    lows = np.concatenate(([0.0], cuts[:-1]))
    widths = cuts - lows
    kernel = pl.KERNELS[model.kind]
    out = np.zeros(n_rep * nx)
    n_new = rng.poisson(rate[..., None] * widths, (n_rep, nx)).ravel()
    n_old = rng.poisson(rate * mean_d, n_rep)

    # pulses arriving inside a cell, at offset s from its start; a block's
    # cells lie in replicates r0 <= r < r1, so it adds into that slice of out
    # and its continuation bincounts span the slice, not the whole output
    cell_width = np.tile(widths, n_rep)
    for cells, share in _pulse_blocks(n_new):
        r0, r1 = cells.start // nx, (cells.stop - 1) // nx + 1
        n = int(share.sum())
        # one window has one width, which needs no per-pulse copy
        width = widths[0] if nx == 1 else np.repeat(cell_width[cells], share)
        s = rng.random(n)
        s *= width
        d, m = kernel.fresh(model, rng, n)
        _add_cells(out[r0 * nx:r1 * nx], model, d, m, 0.0, width - s, s,
                   np.arange(cells.start - r0 * nx, cells.stop - r0 * nx), share, lows, cuts, rng)

    # pulses alive at time zero: one run per replicate, from the stationary age
    for reps, share in _pulse_blocks(n_old):
        age, d, m = kernel.aged(model, rng, int(share.sum()))
        _add_cells(out[reps.start * nx:reps.stop * nx], model, d, m, age, age + cuts[0], -age,
                   np.arange(0, (reps.stop - reps.start) * nx, nx), share, lows, cuts, rng)
    return out.reshape(n_rep, nx)


# -- covariance ------------------------------------------------------------------------


def covariance_oracle(src: ShotNoiseSource, t: float) -> float:
    """Cov(X(0), X(t)) = rate * int_0^inf E[W(u) W(u+t)] du, exact or quadrature."""
    if t < 0:
        raise ValueError("lag must be nonnegative")
    return src.rate * float(pl.cov_integral(src.pulse, t))


def integral_variance(src: ShotNoiseSource, T: float) -> float:
    """Var(int_0^T X dt) = 2 int_0^T (T - t) Cov(X(0), X(t)) dt."""
    return 2.0 * nm.checked_quad(lambda t: (T - t) * covariance_oracle(src, t), 0, T, "integral variance")


# -- scaling regimes --------------------------------------------------------------------


def regime_of(src: ShotNoiseSource, gamma: float) -> RegimeSpec:
    """The family's scaling table entry at source-count growth exponent gamma.

    The driving Levy measure is ``src.rate`` times the unit-rate one, so the
    tail constants c_X, c_plus and c_minus, the intermediate log chf and its
    ``nu_scale`` all scale by the rate; H, gamma0 and the limit kind do not.
    """
    model, rate = src.pulse, src.rate
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
        from scipy.special import hyp2f1

        c_x = (
            math.gamma(kappa + 1.0)
            * c_kappa
            * c_rho
            * hyp2f1(kappa, 1.0, kappa + rho, -1.0)
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

        tail_int = nm.checked_quad(tail_integrand, 0.0, 1.0, "exp-damped tail constant")
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
        abs_moment = 2.0 ** (alpha / 2.0) * math.gamma((alpha + 1.0) / 2.0) / math.sqrt(math.pi)
        c_plus = c_minus = 0.5 * c_rho * abs_moment * 3.0 ** (-rho / 3.0)
    else:
        raise ValueError(f"no scaling table for pulse family {kind!r}")

    c_x, c_plus, c_minus = rate * c_x, rate * c_plus, rate * c_minus
    constants = {"c_X": c_x, "H1": h1, "c_plus": c_plus, "c_minus": c_minus}

    def intermediate():
        # intermediate_logchf is looked up at each evaluation, so a patched
        # module attribute (bench/layers.py traces it) sees every call
        return ({"nu_scale": rate * model.R.tail_constant()},
                lambda theta, x=1.0, y=1.0: intermediate_logchf(model, theta, x, rate * y))

    return build_regime(gamma, gamma0, alpha, constants, (c_plus, c_minus), intermediate)


# -- intermediate-limit characteristic functions -----------------------------------------


# Orders of the chf rule on its four axes: mark (amplitude or damping rate),
# duration head, duration tail (tanh-sinh half-width) and arrival; err, the
# distance to the rule of twice every order, is 2.2e-7 relative for exp-damped
# pulses (rho=1.2, kappa=0.5, x=1, theta=0.8) and 1.2e-7 for rect-coupled ones
# (rho=1.7, p=0.8, x=theta=1).
CHF_NODES = (32, 24, 48, 16)
CHF_RTOL = 1e-5
# v = w**3 in the damping-rate axis: the duration tail leaves a
# v**((rho-1)/kappa) corner at v = 0 that stalls plain Gauss-Legendre in v
EXP_DAMPED_GRADING = 3


def intermediate_logchf(model, theta: float, x: float, y: float = 1.0) -> complex:
    """log E exp(i theta V(x, y)) for the critical-regime limit of a shot-noise family.

    The limit is a compensated Poisson integral: y times the integral of
    Psi(theta * window mass) = e^{i theta mass} - 1 - i theta mass over pulse
    duration (Levy measure of the duration tail), mark and arrival.  Every
    family runs one fixed rule (``_chf_rule``) at ``CHF_NODES`` and at twice
    every order; RuntimeError when the two differ by more than ``CHF_RTOL``.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if theta == 0.0:
        return 0.0 + 0.0j
    value, err = _intermediate_logchf(model, theta, x)
    if not err <= CHF_RTOL * abs(value):
        raise RuntimeError(f"{model.kind} chf rule did not converge (error bound {err:.2e} for {value:.6e})")
    return y * value


def _intermediate_logchf(model, theta: float, x: float, orders=CHF_NODES) -> tuple[complex, float]:
    """(value, err) at y = 1: the rule at twice every order and its distance to the rule at ``orders``."""
    fine = _chf_rule(model, theta, x, tuple(2 * n for n in orders))
    return fine, abs(fine - _chf_rule(model, theta, x, orders))


def _chf_rule(model, theta: float, x: float, orders) -> complex:
    """One fixed rule for log E exp(i theta V(x, 1)).

    Durations come from ``nm.levy_duration_rule`` with the break b where a
    pulse first covers the window (x, or x**(1/p) for rect-coupled pulses)
    and power 2 / (k - rho) for an arrival integral that vanishes like r**k
    (k = 3 for Brownian pulses, 2 otherwise).  Each family supplies its
    arrival integral g(mark, r) and its mark nodes.  Rect-coupled pulses with
    p < 1 split the duration tail where |theta| * height * x reaches 1.
    """
    n_mark, n_head, n_tail, n_u = orders
    kind = model.kind
    if kind not in ("rect-indep", "rect-coupled", "brownian", "exp-damped"):
        raise ValueError(f"no intermediate-limit oracle for family {kind!r}")
    rho = model.R.alpha
    k = 3.0 if kind == "brownian" else 2.0
    if not 0.0 < k - rho:
        raise ValueError(f"no intermediate limit for {kind} pulses with duration tail index {rho} >= {k:g}")
    b = x ** (1.0 / model.p) if kind == "rect-coupled" else x
    c_rho = model.R.tail_constant()
    r, w = nm.levy_duration_rule(rho, c_rho, b, 2.0 / (k - rho), n_head, n_tail)
    if kind in ("rect-indep", "rect-coupled"):
        # height a * r**(1-p) and duration r**p: p = 1 for rect-indep, a = 1 for rect-coupled
        p, a_law = (1.0, model.A) if kind == "rect-indep" else (model.p, DegenerateDist(1.0))
        if isinstance(a_law, UniformDist):
            a, wa = nm.gauss_legendre_panels((a_law.lo, a_law.hi), n_mark)
            a, wa = a[0], wa[0] / (a_law.hi - a_law.lo)
        elif isinstance(a_law, DegenerateDist):
            a, wa = np.array([a_law.value]), np.ones(1)
        else:
            raise ValueError("intermediate oracle needs a degenerate or uniform amplitude law")
        if p < 1.0:
            # beyond b the arrival integral grows like r**(2-p) until |z| = 1 at
            # r = edge, which a small theta pushes far out; the tail is split
            # there: Gauss-Legendre in log r up to it, tanh-sinh beyond
            edge = abs(theta * x) ** (-1.0 / (1.0 - p))
            if edge > b:
                v, wv = nm.gauss_legendre_panels((0.0, math.log(edge / b)), n_tail)
                s, ws = nm.tanh_sinh_unit(n_tail)
                r_mid = b * np.exp(v[0])
                r = np.concatenate((r[:n_head], r_mid, edge * s ** (-1.0 / rho)))
                w = np.concatenate((w[:n_head], wv[0] * rho * c_rho * r_mid**-rho, ws * c_rho * edge**-rho))
            # beyond b the height grows and Psi oscillates ever faster in r; on
            # the ray r = b + e**(i phi) (r' - b), phi = pi/4 with the sign of
            # theta, it decays instead, and by Cauchy the integral is the same
            # (the integrand is analytic and vanishes like |r|**(1-rho) between
            # the ray and the real axis)
            tilt = np.exp(1j * math.copysign(0.25 * math.pi, theta))
            r_tail = r[n_head:]
            r = np.concatenate((r[:n_head], b + tilt * (r_tail - b)))
            w = np.concatenate((w[:n_head], w[n_head:] * tilt * (r[n_head:] / r_tail) ** (-1.0 - rho)))
        # the overlap of (u, u + d) with (0, x) rises linearly to m = min(d, x),
        # stays for |x - d| and falls back, so g = 2 m ramp(z) + |x - d| Psi(z)
        # with z = theta * height * m; for d > x (the tail) this also holds
        # on the ray
        head = np.arange(r.size) < n_head
        d = r**p
        m = np.where(head, d, x)
        z = theta * a[:, None] * r ** (1.0 - p) * m
        g = 2.0 * m * nm.psi_ramp_array(z) + np.where(head, x - d, d - x) * nm.psi_array(z)
    elif kind == "brownian":
        wa, g = np.ones(1), _brownian_arrival(theta, r, x, n_u)[None, :]
    else:
        wa, g = _exp_damped_arrival(model.A, theta, r, x, n_mark, n_head, n_u)
    return complex(wa @ g @ w)


def _brownian_arrival(theta: float, r, x: float, n_u: int):
    """int expm1(-theta**2 Var(mass) / 2) du for Brownian pulses of duration r.

    Pulses covering the window's start, or starting inside it, see a stretch
    w in (0, min(r, x)) at the end or start of their path: Var = w**2 (r -
    2w/3) or w**3/3, Gauss-Legendre in w.  The x - r pulses inside the window
    have Var = r**3/3; a pulse covering it with lag l in (0, r - x) has
    Var = x**3/3 + x**2 l, integrated in closed form.
    """
    k = 0.5 * theta * theta
    m = np.minimum(r, x)
    t, wt = nm.gauss_legendre_panels((0.0, 1.0), n_u)
    s = m[:, None] * t[0]
    ends = np.expm1(-k * s * s * (r[:, None] - 2.0 * s / 3.0)) + np.expm1(-k * s**3 / 3.0)
    g = m * (ends @ wt[0])
    inside = r <= x
    g[inside] += (x - r[inside]) * np.expm1(-k * r[inside] ** 3 / 3.0)
    # int_0^lag expm1(-c0 - k x**2 l) dl = -lag * (e**-c0 phi(z) - expm1(-c0)), z = k x**2 lag,
    # phi(z) = 1 + expm1(-z) / z on its series below z = 1e-3
    lag = r[~inside] - x
    c0 = k * x**3 / 3.0
    z = k * x * x * lag
    phi = np.where(z < 1e-3, z / 2.0 * (1.0 - z / 3.0 * (1.0 - z / 4.0 * (1.0 - z / 5.0))),
                   1.0 + np.expm1(-z) / np.where(z < 1e-3, 1.0, z))
    g[~inside] -= lag * (math.exp(-c0) * phi - math.expm1(-c0))
    return g


def _exp_damped_arrival(law, theta: float, r, x: float, n_v: int, n_head: int, n_u: int):
    """Damping-rate weights and the arrival integrals g(a, r) of exp-damped pulses.

    The damping rate is a = upper * v**(1/kappa) with v uniform, graded as
    v = z**EXP_DAMPED_GRADING and Gauss-Legendre in z.  The first n_head
    durations are the head r < x.  For each (a, r) the arrival integral
    splits where the window (lo, hi] of the pulse changes form: pulses
    starting before 0 and ending inside the window, pulses starting inside
    it (both of length min(r, x), Gauss-Legendre), and the middle stretch:
    length x - r with a constant mass when r <= x, else the pulses covering
    the whole window, run in e = exp(a u) because their mass decays like
    exp(a u) over a stretch of length r - x.
    """
    grade = EXP_DAMPED_GRADING
    z, wz = nm.gauss_legendre_panels((0.0, 1.0), n_v)
    a = law.upper * z[0] ** (grade / law.kappa)
    wa = wz[0] * grade * z[0] ** (grade - 1)

    t, wt = nm.gauss_legendre_panels((0.0, 1.0), n_u)
    t, wt = t[0], wt[0]
    aa, rr = a[:, None, None], r[None, :, None]
    span = np.minimum(rr, x)
    ends = nm.psi_array(theta * np.exp(-aa * rr) * np.expm1(aa * span * t) / aa)
    ends += nm.psi_array(-theta * np.expm1(-aa * span * t) / aa)
    g = span[:, :, 0] * (ends @ wt)

    ac, r_in, r_out = a[:, None], r[:n_head], r[n_head:]
    g[:, :n_head] += (x - r_in) * nm.psi_array(-theta * np.expm1(-ac * r_in) / ac)
    width = -np.expm1(-aa * (r_out[None, :, None] - x))  # the e-range is (1 - width, 1)
    e = 1.0 - width * (1.0 - t)
    covering = nm.psi_array(-theta * np.expm1(-aa * x) / aa * e) / (aa * e)
    g[:, n_head:] += width[:, :, 0] * (covering @ wt)
    return wa, g
