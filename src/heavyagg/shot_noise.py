"""Poisson shot noise: stationary superposition of pulses at unit-rate arrivals.

The input process is X(t) = sum_j W_j(t - T_j) over a stationary Poisson
arrival stream.  Its one path sampler, ``integrated_path_batch``, draws
exact-in-law samples of the windowed integrals int X(t) dt over consecutive
windows: arrivals inside each window are a Poisson(rate * width) batch with
uniform positions, and pulses already alive at the first window's start are
a Poisson(rate * E[D]) batch whose (age, duration) pairs come from the exact
length-biased device.  No truncation horizon is involved anywhere.  Every
pulse is evaluated only on the windows it touches; deterministic pulses
through the per-family kernels of the pulses module, Brownian pulses through
a Gaussian recursion that carries the path value from window to window.  A
single window (0, T] is the one-cut path ``integrated_path_batch(src, [T],
...)[:, 0]``.

It also carries the family constants of the scaling table (the critical
growth exponent gamma0, the exponents and tail constants that the regimes
module turns into the three limit laws), plus quadrature oracles for the
covariance function and for the characteristic function of the intermediate
(critical-regime) limit field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from . import numerics as nm
from . import pulses as pl
from .heavy_tail import DegenerateDist
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
        return self.rate * pl.mean_mass(self.pulse)


# -- batched exact sampling ----------------------------------------------------------


def _brownian_cells(lo, hi, lo_more, hi_more, pulse, step, rng):
    """Window integrals of Brownian pulses on their first and continuation cells.

    Pulse i spans the pulse-local stretch (lo[i], hi[i]] of its first cell;
    continuation cell c spans (lo_more[c], hi_more[c]] of pulse number pulse[c]
    and is that pulse's step[c]-th cell after the first.  Given the path value
    beta at the start of a stretch of length h, the integral over the stretch
    and the value at its end are jointly Gaussian: beta * h + h^1.5 (z1 / 2 +
    z2 / sqrt(12)) and beta + sqrt(h) z1.  One pair of normals per cell; the
    value at a pulse's first start is N(0, lo), nonzero only for aged pulses,
    and a segmented cumulative sum of the sqrt(h) z1 steps carries it over
    the continuation cells.  Outside its support a pulse is zero, so cells it
    does not touch need no draws.
    """
    h = np.concatenate((hi - lo, hi_more - lo_more))
    z1, z2 = rng.standard_normal((2, h.size))
    rise = np.sqrt(h) * z1
    beta = np.sqrt(lo) * rng.standard_normal(lo.size)
    # value at the start of a continuation cell: the end of the first cell
    # plus the rises of the pulse's earlier continuation cells
    more_rise = rise[lo.size:]
    before = np.cumsum(more_rise) - more_rise
    seg_first = np.arange(step.size) - (step - 1)
    beta = np.concatenate((beta, (beta + rise[:lo.size])[pulse] + before - before[seg_first]))
    vals = beta * h + h**1.5 * (0.5 * z1 + z2 / math.sqrt(12.0))
    return vals[:lo.size], vals[lo.size:]


def _continuation_cells(d, a, b, cell, lows, cuts):
    """The windows pulses touch after their first one, as flat cells.

    Arguments as for ``_add_cells``.  Returns (pulse, step, lo, hi) with one
    entry per continuation cell: the pulse's index, the cell's offset from
    the pulse's first cell and the cell's window (lo, hi] in pulse-local time,
    clipped to the support.  The cells of one pulse are consecutive and in
    time order.
    """
    nx = cuts.size
    more = np.flatnonzero(d > b) if nx > 1 else np.empty(0, dtype=np.intp)
    first = cell[more] % nx
    u = lows[first] - a[more]
    # the window holding the pulse end is the count of cuts strictly before it
    n_more = np.minimum(np.searchsorted(cuts, u + d[more]), nx - 1) - first
    owner = np.repeat(np.arange(more.size), n_more)
    # continuation cells of one pulse are windows first + 1, ..., first + n_more
    step = 1 + np.arange(owner.size) - np.repeat(np.cumsum(n_more) - n_more, n_more)
    window = first[owner] + step
    pulse = more[owner]
    u, d = u[owner], d[pulse]
    return pulse, step, np.clip(lows[window] - u, 0.0, d), np.clip(cuts[window] - u, 0.0, d)


def _add_cells(out, model, d, m, a, b, cell, lows, cuts, rng):
    """Add realized pulses' window increments into the flat (rep, window) array out.

    Pulse i of one leaf family has duration d[i] and mark m[i]; it first
    touches the window whose flat index (rep * n_windows + window) is
    cell[i], and (a[i], b[i]] is that window in the pulse's local time.
    Window j covers global time (lows[j], cuts[j]].  A pulse is evaluated on
    its first window and, only when it outlives that window, on each later
    window up to the one holding its end, so it costs O(1 + windows touched).
    Only the per-cell evaluation depends on the family.  Deterministic
    families add and free their first-cell masses before the continuation
    cells are built, which keeps the two sets of arrays from being alive at
    once; Brownian pulses need both together for their path values.
    """
    lo, hi = np.clip(a, 0.0, d), np.clip(b, 0.0, d)
    if model.kind == "brownian":
        pulse, step, lo_more, hi_more = _continuation_cells(d, a, b, cell, lows, cuts)
        head, tail = _brownian_cells(lo, hi, lo_more, hi_more, pulse, step, rng)
        out += np.bincount(cell, head, out.size)
    else:
        mass = pl.KERNELS[model.kind].mass
        out += np.bincount(cell, mass(m, lo, hi), out.size)
        del lo, hi
        pulse, step, lo_more, hi_more = _continuation_cells(d, a, b, cell, lows, cuts)
        tail = mass(m[pulse], lo_more, hi_more)
    out += np.bincount(cell[pulse] + step, tail, out.size)


def _leaf_groups(model, probs, rng, k):
    """Yield (leaf, index, count) for k pulses split over the model's leaf families.

    A mixture draws each pulse's component with probabilities ``probs``; a
    plain family takes all k pulses through a slice, without drawing.
    """
    if model.kind != "mixture":
        if k:
            yield model, slice(None), k
        return
    comp = rng.choice(len(model.components), size=k, p=probs)
    for ci, leaf in enumerate(model.components):
        idx = np.flatnonzero(comp == ci)
        if idx.size:
            yield leaf, idx, idx.size


def integrated_path_batch(src: ShotNoiseSource, cuts, rng: np.random.Generator, n_rep: int):
    """Stationary increments int_{c_{j-1}}^{c_j} X dt over shared pulses.

    ``cuts`` are finite, strictly increasing positive times c_1 < ... < c_n
    (the first window opens at 0).  Returns shape (n_rep, n_windows); each
    row's windows are evaluated on one set of pulses, so cumulative sums over a
    row form a consistent sample path of the integrated process.

    Arrivals are drawn window by window: Poisson(rate * width) uniform points
    in each (rep, window) cell.  That is the Poisson process on (0, c_n]
    restricted to disjoint windows, and it tells each new pulse's first
    window without a search.  Pulses alive at time zero are a
    Poisson(rate * E D) batch with exact stationary (age, duration) pairs,
    first touching window 0.  Pulses are evaluated only on the
    windows they touch, and bincounts over flat (rep, window) indices sum
    the cells, so the cost is O(pulses + cells touched), not
    O(pulses * n_windows).  Brownian pulses go through the same cells and
    carry their path value from one touched window to the next.
    """
    cuts = nm.strict_grid("cuts", cuts)
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    mean_d = src.mean_duration
    if not math.isfinite(mean_d):
        raise ValueError("mean pulse duration must be finite")
    nx = cuts.size
    lows = np.concatenate(([0.0], cuts[:-1]))
    widths = cuts - lows
    model = src.pulse
    out = np.zeros(n_rep * nx)

    # pulses arriving inside each window, at offset s from its start; a new
    # pulse's first cell is its (rep, window) cell
    n_new = rng.poisson(src.rate * widths, (n_rep, nx)).ravel()
    cell = np.repeat(np.arange(n_rep * nx), n_new)
    width = np.repeat(np.tile(widths, n_rep), n_new)
    s = width * rng.uniform(size=cell.size)
    probs = model.weights if model.kind == "mixture" else None
    for leaf, idx, k in _leaf_groups(model, probs, rng, cell.size):
        d, m = pl.KERNELS[leaf.kind].fresh(leaf, rng, k)
        _add_cells(out, leaf, d, m, -s[idx], width[idx] - s[idx], cell[idx], lows, cuts, rng)

    # pulses alive at time zero, anchored at the negated stationary age; a
    # mixture's alive-pulse component is size-biased by its mean duration
    n_old = rng.poisson(src.rate * mean_d, n_rep)
    cell = np.repeat(np.arange(0, n_rep * nx, nx), n_old)
    if model.kind == "mixture":
        probs = np.array(model.weights) * [pl.duration_mean(c) for c in model.components]
        probs /= probs.sum()
    for leaf, idx, k in _leaf_groups(model, probs, rng, cell.size):
        age, d, m = pl.KERNELS[leaf.kind].aged(leaf, rng, k)
        _add_cells(out, leaf, d, m, age, age + cuts[0], cell[idx], lows, cuts, rng)
    return out.reshape(n_rep, nx)


# -- covariance ------------------------------------------------------------------------


def covariance_oracle(src: ShotNoiseSource, t: float) -> float:
    """Cov(X(0), X(t)) = rate * int_0^inf E[W(u) W(u+t)] du, exact or quadrature."""
    if t < 0:
        raise ValueError("lag must be nonnegative")
    return src.rate * _cov_kernel_integral(src.pulse, t)


def _checked_quad(f, lo: float, hi: float, what: str) -> float:
    """Adaptive ``quad`` of f over (lo, hi); RuntimeError above an error bound of max(1e-8, 1e-6 |value|)."""
    val, err = integrate.quad(f, lo, hi, limit=400)
    if err > max(1e-8, 1e-6 * abs(val)):
        raise RuntimeError(f"{what} quadrature did not converge (error bound {err:.2e} for {val:.6e})")
    return val


def _cov_kernel_integral(model, t: float) -> float:
    kind = model.kind
    if kind == "rect-indep":
        return model.A.moment(2.0) * float(model.R.integrated_survival(t))
    if kind == "mixture":
        return float(sum(w * _cov_kernel_integral(c, t) for w, c in zip(model.weights, model.components)))
    return _checked_quad(lambda u: pl.corr_kernel(model, u, t), 0, np.inf, "covariance")


def integral_variance(src: ShotNoiseSource, T: float) -> float:
    """Var(int_0^T X dt) = 2 int_0^T (T - t) Cov(X(0), X(t)) dt."""
    return 2.0 * _checked_quad(lambda t: (T - t) * covariance_oracle(src, t), 0, T, "integral variance")


# -- scaling regimes --------------------------------------------------------------------


def regime_of(src: ShotNoiseSource, gamma: float) -> RegimeSpec:
    """The family's scaling table entry at source-count growth exponent gamma."""
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

        tail_int = _checked_quad(tail_integrand, 0.0, 1.0, "exp-damped tail constant")
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

    def intermediate():
        # intermediate_logchf is looked up at each evaluation, so a patched
        # module attribute (bench/layers.py traces it) sees every call
        return ({"nu_scale": model.R.tail_constant()},
                lambda theta, x=1.0, y=1.0: intermediate_logchf(model, theta, x, y))

    return build_regime(gamma, gamma0, alpha, constants, (c_plus, c_minus), intermediate)


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
    (arrival, vertical) coordinates with the duration-tail Levy measure.
    Rectangular families take the arrival coordinate in closed form and the
    duration by adaptive quadrature; Brownian pulses nest adaptive quadrature
    over arrival inside duration.  Exp-damped pulses run one fixed
    tensor-product rule over damping rate, duration and arrival (see
    ``_exp_damped_rule``) at ``EXP_DAMPED_NODES`` and at twice every order,
    and raise RuntimeError when the two differ by more than
    ``EXP_DAMPED_RTOL`` relative.
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
        value, err = _exp_damped_logchf(model, theta, x)
        if not err <= EXP_DAMPED_RTOL * abs(value):
            raise RuntimeError(f"exp-damped chf rule did not converge (error bound {err:.2e} for {value:.6e})")
        return y * value

    raise ValueError(f"no intermediate-limit oracle for family {kind!r}")


# Orders of the exp-damped chf rule on its four axes: damping rate, duration
# head, duration tail (tanh-sinh half-width) and arrival.  The error estimate
# compares the rule with the one of twice every order.  At rho=1.2,
# kappa=0.5, x=1, theta=0.8 the pair differs by 2e-7 relative, the finer
# rule is within 2e-10 of the converged value, and both take 0.09 s.
EXP_DAMPED_NODES = (32, 24, 48, 16)
EXP_DAMPED_RTOL = 1e-5
# v = w**3 in the damping-rate axis: the duration tail leaves a
# v**((rho-1)/kappa) corner at v = 0 that stalls plain Gauss-Legendre in v
EXP_DAMPED_GRADING = 3


def _exp_damped_rule(model, theta: float, x: float, orders) -> complex:
    """One tensor-product rule for log E exp(i theta V(x, 1)) with exp-damped pulses.

    The damping rate is a = upper * v**(1/kappa) with v uniform, graded as
    v = z**EXP_DAMPED_GRADING and Gauss-Legendre in z.  Durations r < x run
    in q with r = q**(2/(2 - rho)), which flattens the r**(1-rho) head;
    durations r > x run in s with r = x * s**(-1/rho), which makes the Levy
    weight uniform, on the tanh-sinh rule.  For each (a, r) the arrival
    integral splits where the window (lo, hi] of the pulse changes form:
    pulses starting before 0 and ending inside the window, pulses starting
    inside it (both of length min(r, x), Gauss-Legendre), and the middle
    stretch: length x - r with a constant mass when r <= x, else the pulses
    covering the whole window, run in e = exp(a u) because their mass decays
    like exp(a u) over a stretch of length r - x.
    """
    n_v, n_head, n_tail, n_u = orders
    rho, c_rho = model.R.alpha, model.R.tail_constant()
    grade = EXP_DAMPED_GRADING

    z, wz = nm.gauss_legendre_panels((0.0, 1.0), n_v)
    a = model.A.upper * z[0] ** (grade / model.A.kappa)
    wa = wz[0] * grade * z[0] ** (grade - 1)

    n_sub = 2.0 / (2.0 - rho)
    q, wq = nm.gauss_legendre_panels((0.0, x ** (1.0 / n_sub)), n_head)
    r_in = q[0] ** n_sub
    w_in = wq[0] * n_sub * q[0] ** (n_sub - 1.0) * rho * c_rho * r_in ** (-1.0 - rho)
    s, ws = nm.tanh_sinh_unit(n_tail)
    r_out = x * s ** (-1.0 / rho)
    r = np.concatenate((r_in, r_out))

    t, wt = nm.gauss_legendre_panels((0.0, 1.0), n_u)
    t, wt = t[0], wt[0]
    aa, rr = a[:, None, None], r[None, :, None]
    span = np.minimum(rr, x)
    ends = nm.psi_array(theta * np.exp(-aa * rr) * np.expm1(aa * span * t) / aa)
    ends += nm.psi_array(-theta * np.expm1(-aa * span * t) / aa)
    g = span[:, :, 0] * (ends @ wt)

    ac = a[:, None]
    g[:, :r_in.size] += (x - r_in) * nm.psi_array(-theta * np.expm1(-ac * r_in) / ac)
    width = -np.expm1(-aa * (r_out[None, :, None] - x))  # the e-range is (1 - width, 1)
    e = 1.0 - width * (1.0 - t)
    covering = nm.psi_array(-theta * np.expm1(-aa * x) / aa * e) / (aa * e)
    g[:, r_in.size:] += width[:, :, 0] * (covering @ wt)
    return complex(wa @ g @ np.concatenate((w_in, ws * c_rho * x**-rho)))


def _exp_damped_logchf(model, theta: float, x: float, orders=EXP_DAMPED_NODES) -> tuple[complex, float]:
    """(value, err) of the exp-damped chf at y = 1.

    The value is the rule at twice every order in ``orders``; err is its
    distance to the rule at ``orders``.
    """
    fine = _exp_damped_rule(model, theta, x, tuple(2 * n for n in orders))
    return fine, abs(fine - _exp_damped_rule(model, theta, x, orders))
