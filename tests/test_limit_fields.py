"""Tests for the limit-field laws: the Telecom sampler and the covariance and chf oracles."""

import cmath
import copy
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from heavyagg import limit_fields as lf
from heavyagg import numerics as nm
from heavyagg import shot_noise
from heavyagg.heavy_tail import (
    DegenerateDist,
    LowTailPowerDist,
    RegVaryingDist,
    UniformDist,
    stable_params_from_tails,
)
from heavyagg.pulses import BrownianPulse, ExpDamped, RectCoupled, RectIndep
from heavyagg.streams import stream

SEED = 71


def rng_for(tag: str) -> np.random.Generator:
    return stream(SEED, tag, 0)


# -- fractional Brownian sheet -------------------------------------------------------


def test_fbs_spec_validation():
    with pytest.raises(ValueError):
        lf.FbsSpec(h1=0.0)
    with pytest.raises(ValueError):
        lf.FbsSpec(h1=1.2)
    with pytest.raises(ValueError):
        lf.FbsSpec(h1=0.5, c_w=-1.0)


# every grid a limit sampler must refuse: a zero, a tie, a decrease, NaN,
# infinity, empty, 2-d
BAD_GRIDS = ([0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [math.nan], [1.0, math.nan], [1.0, math.inf], [],
             [[1.0, 2.0], [3.0, 4.0]])


def test_stable_sheet_and_telecom_reject_bad_grids():
    spec = lf.TelecomSpec(alpha=1.5)
    rng = rng_for("grid-bad")
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match="x_grid"):
            lf.sample_telecom(spec, grid, 1.0, rng, 1)


def test_fbs_covariance_closed_form_anchor():
    spec = lf.FbsSpec(h1=0.75, c_w=2.0)
    assert lf.fbs_covariance(spec, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(4.0)
    # h1 = 1/2 makes the x-direction Brownian as well: cov = c^2 min(x,x') min(y,y')
    b = lf.FbsSpec(h1=0.5, c_w=1.0)
    assert lf.fbs_covariance(b, (1.0, 2.0), (3.0, 1.0)) == pytest.approx(1.0)
    assert lf.fbs_covariance(b, (2.0, 3.0), (5.0, 4.0)) == pytest.approx(2.0 * 3.0)
    # off the quadrant the closed form is complex, negative or NaN: refused
    for p in ((-0.5, 1.0), (1.0, -1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="x and y must be nonnegative"):
            lf.fbs_covariance(lf.FbsSpec(0.75), p, (1.0, 1.0))


@pytest.mark.parametrize("name", ["telecom"])
def test_limit_sampler_replicate_count(name):
    # the limit sampler refuses a count below one and keeps the replicate
    # axis for a single replicate: shape (n_rep, nx)
    spec = lf.TelecomSpec(alpha=1.5, eps=0.1)
    rng = rng_for(f"nrep-{name}")
    for bad in (0, -2):
        with pytest.raises(ValueError, match="n_rep must be at least 1"):
            lf.sample_telecom(spec, [1.0, 2.0], 1.0, rng, bad)
    for n_rep in (1, 3):
        assert lf.sample_telecom(spec, [1.0, 2.0], 1.0, rng, n_rep).shape == (n_rep, 2)


def test_telecom_sampler_rejects_bad_y_max():
    # an infinite source count is refused by the sampler, not by its kernel
    spec = lf.TelecomSpec(alpha=1.5, eps=0.1)
    rng = rng_for("y-max-bad")
    for y_max in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="y_max must be positive and finite"):
            lf.sample_telecom(spec, [1.0], y_max, rng, 1)


# -- Telecom field: variance identities ----------------------------------------------


def test_telecom_variance_anchor():
    assert lf.telecom_variance(1.5, 1.0, 1.0, 1.0) == pytest.approx(16.0 / 3.0, rel=1e-12)
    # covariance route: the rate process has Cov(t) = c t^(1-alpha)/(alpha-1), and
    # Var = 2 y int_0^x (x - t) Cov(t) dt
    a, c, x = 1.7, 0.8, 2.3
    brute, _ = integrate.quad(lambda t: (x - t) * c * t ** (1.0 - a) / (a - 1.0), 0.0, x)
    assert lf.telecom_variance(a, c, x, 0.7) == pytest.approx(2.0 * 0.7 * brute, rel=1e-9)


def test_truncation_variance_bounds_brute():
    spec = lf.TelecomSpec(alpha=1.5, c=2.0, eps=0.05)

    def sq_overlap(r, x):
        if r <= x:
            return r * r * x - r**3 / 3.0
        return 2.0 * x**3 / 3.0 + (r - x) * x * x

    x, y = 1.3, 0.8
    sj, _ = integrate.quad(lambda r: sq_overlap(r, x) * 1.5 * 2.0 * r**-2.5, 0.0, spec.eps)
    assert lf.small_jump_variance(spec, x, y) == pytest.approx(y * sj, rel=1e-8)
    # eps above x exercises the second branch
    wide = lf.TelecomSpec(alpha=1.5, c=2.0, eps=2.0)
    sj2, _ = integrate.quad(lambda r: sq_overlap(r, x) * 1.5 * 2.0 * r**-2.5, 0.0, wide.eps, points=[x])
    assert lf.small_jump_variance(wide, x, y) == pytest.approx(y * sj2, rel=1e-8)

    # the sampler makes no cut on the arrival axis
    assert lf.left_pad_variance(spec, x, y) == 0.0


def test_telecom_variances_at_the_origin_and_off_the_quadrant():
    # the field vanishes at x = 0, and so do its variance and the truncation
    # budget; a negative x or y is no point of the field
    spec = lf.TelecomSpec(alpha=1.5)
    assert lf.small_jump_variance(spec, 0.0) == 0.0
    assert lf.small_jump_variance(spec, 1.0, 0.0) == 0.0
    assert lf.telecom_variance(1.5, 1.0, 0.0) == 0.0
    for x, y in ((-1.0, 1.0), (1.0, -1.0), (1.0, -2.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            lf.small_jump_variance(spec, x, y)
        with pytest.raises(ValueError, match="must be nonnegative"):
            lf.telecom_variance(1.5, 1.0, x, y)


def test_halving_eps_shrinks_small_jump_bound():
    xs = (0.7, 1.0, 3.0)
    prev = [lf.small_jump_variance(lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.04), x) for x in xs]
    for eps in (0.02, 0.01, 0.005):
        cur = [lf.small_jump_variance(lf.TelecomSpec(alpha=1.5, c=1.0, eps=eps), x) for x in xs]
        assert all(c < p for c, p in zip(cur, prev))
        # the bound decays like eps^(2-alpha) up to a smaller-order correction,
        # so halving eps gains close to a factor sqrt(2)
        assert all(c < p / 1.3 for c, p in zip(cur, prev))
        prev = cur


def test_telecom_spec_validation():
    with pytest.raises(ValueError):
        lf.TelecomSpec(alpha=2.0)
    with pytest.raises(ValueError):
        lf.TelecomSpec(alpha=1.5, c=0.0)
    with pytest.raises(ValueError):
        lf.TelecomSpec(alpha=1.5, eps=0.0)


# -- Telecom field: sampler ----------------------------------------------------------


def test_telecom_sampler_variance_and_chf():
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.01)
    n = 30_000
    xs = [1.0, 2.0]
    draws = lf.sample_telecom(spec, xs, 1.0, rng_for("tele-var"), n_rep=n)
    assert draws.shape == (n, 2)
    slack = {x: lf.small_jump_variance(spec, x) for x in xs}
    for j, x in enumerate(xs):
        col = draws[:, j]
        se_mean = np.std(col) / math.sqrt(n)
        assert abs(np.mean(col)) < 3.5 * se_mean
        want = lf.telecom_variance(spec.alpha, spec.c, x) - slack[x]
        kurt = stats.kurtosis(col, fisher=False)
        se_var = np.var(col) * math.sqrt((kurt - 1.0) / n)
        assert abs(np.var(col) - want) < 3.5 * se_var
    # empirical ch.f. against the exact one, truncation allowance included
    col = draws[:, 0]
    for th in (-2.0, -0.5, 0.5, 1.0, 2.0):
        emp = complex(np.mean(np.exp(1j * th * col)))
        se = math.sqrt((np.var(np.cos(th * col)) + np.var(np.sin(th * col))) / n)
        exact = cmath.exp(lf.telecom_field_logchf(spec, th, 1.0, 1.0))
        assert abs(emp - exact) < 3.0 * se + 0.5 * th * th * slack[1.0]


def test_telecom_sampler_y_scaling():
    # doubling y_max doubles the variance
    spec = lf.TelecomSpec(alpha=1.7, c=1.0, eps=0.02)
    n = 20_000
    one = lf.sample_telecom(spec, [1.0], 1.0, rng_for("tele-y1"), n_rep=n)[:, 0]
    two = lf.sample_telecom(spec, [1.0], 2.0, rng_for("tele-y2"), n_rep=n)[:, 0]
    v1, v2 = np.var(one), np.var(two)
    se = v2 * math.sqrt((stats.kurtosis(two, fisher=False) - 1.0) / n)
    assert abs(v2 - 2.0 * v1) < 4.0 * se


def test_telecom_sampler_variance_growth_exponent():
    # slope of log Var against log x recovers 3 - alpha
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.005)
    xs = np.array([1.0, 2.0, 4.0])
    draws = lf.sample_telecom(spec, xs, 1.0, rng_for("tele-slope"), n_rep=20_000)
    lv = np.log(np.var(draws, axis=0))
    slope = np.polyfit(np.log(xs), lv, 1)[0]
    assert abs(slope - 1.5) < 0.05


@pytest.mark.parametrize("small_blocks", [False, True])
def test_telecom_sampler_cross_x_covariance(monkeypatch, small_blocks):
    # stationary increments: Cov(J(x1), J(x2)) = (V(x1) + V(x2) - V(x2 - x1)) / 2,
    # with V the variance of the eps-cut field
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.05)
    xs = (0.5, 1.0, 2.0)
    n = 10_000
    split_cells = []
    if small_blocks:
        # an odd block of 31 pulses ends inside cells of one replicate, so
        # the pulses of one (replicate, window) cell fall into two blocks
        # (the b-cut source draws few enough pulses that blocks must be small)
        monkeypatch.setattr(shot_noise, "PULSE_BLOCK", 31)
        walk = shot_noise._pulse_blocks

        def spy(counts):
            last = -1
            for entries, share in walk(counts):
                split_cells.append(entries.start == last)
                last = entries.stop - 1
                yield entries, share

        monkeypatch.setattr(shot_noise, "_pulse_blocks", spy)
    draws = lf.sample_telecom(spec, xs, 1.0, rng_for("tele-cov"), n_rep=n)
    if small_blocks:
        assert sum(split_cells) > 1000

    def var(x):
        return lf.telecom_variance(spec.alpha, spec.c, x) - lf.small_jump_variance(spec, x)

    centred = draws - draws.mean(axis=0)
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        x1, x2 = xs[i], xs[j]
        want = 0.5 * (var(x1) + var(x2) - var(x2 - x1))
        prod = centred[:, i] * centred[:, j]
        assert abs(prod.mean() - want) < 4.0 * prod.std() / math.sqrt(n)


def test_telecom_sampler_without_band_is_the_eps_cut_source(monkeypatch):
    # at BAND_FACTOR = 1 the sampler is the eps-cut shot noise bit for bit and
    # leaves the generator where that construction does: it draws no normal
    monkeypatch.setattr(lf, "BAND_FACTOR", 1.0)
    spec = lf.TelecomSpec(alpha=1.5, c=2.0, eps=0.05)
    xs, y, n = np.array([0.5, 1.0, 2.5]), 1.5, 200
    rng = rng_for("tele-no-band")
    replay = copy.deepcopy(rng)
    got = lf.sample_telecom(spec, xs, y, rng, n_rep=n)
    src = shot_noise.ShotNoiseSource(RectIndep(DegenerateDist(1.0), RegVaryingDist(spec.alpha, spec.eps)),
                                     rate=y * spec.c * spec.eps**-spec.alpha)
    want = np.cumsum(shot_noise.integrated_path_batch(src, xs, replay, n), axis=1)
    want -= xs * src.mean_level()
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("x", [0.005, 0.5, 1.0, 3.0])
def test_telecom_sampler_parts_add_up_to_the_eps_cut_variance(x):
    # the exact part (durations above b) and the Gaussian band (eps, b] are
    # independent, so their variances add to the eps-cut field's; x = 0.005
    # lies below eps and x = 3 above b, covering both overlap branches
    spec = lf.TelecomSpec(alpha=1.5, c=2.0, eps=0.05)
    y = 0.8
    b = lf.BAND_FACTOR * spec.eps
    exact = shot_noise.ShotNoiseSource(RectIndep(DegenerateDist(1.0), RegVaryingDist(spec.alpha, b)),
                                       rate=y * spec.c * b**-spec.alpha)
    band = y * float(lf._overlap_energy(spec.alpha, spec.c, spec.eps, b, x))
    want = lf.telecom_variance(spec.alpha, spec.c, x, y) - lf.small_jump_variance(spec, x, y)
    assert shot_noise.integral_variance(exact, x) + band == pytest.approx(want, rel=1e-8)


def test_telecom_sampler_on_a_grid_finer_than_the_band():
    # 200 points eps apart, far finer than b = BAND_FACTOR * eps: the band's
    # covariance matrix is close to singular, and its factor must still give
    # the eps-cut field's covariance
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.01)
    xs = spec.eps * np.arange(1, 201)
    n = 10_000
    draws = lf.sample_telecom(spec, xs, 1.0, rng_for("tele-fine"), n_rep=n)
    assert draws.shape == (n, xs.size) and np.all(np.isfinite(draws))

    def var(x):
        return lf.telecom_variance(spec.alpha, spec.c, x) - lf.small_jump_variance(spec, x)

    centred = draws - draws.mean(axis=0)
    for i, j in [(0, 1), (9, 10), (49, 199)]:
        x1, x2 = xs[i], xs[j]
        want = 0.5 * (var(x1) + var(x2) - var(x2 - x1))
        prod = centred[:, i] * centred[:, j]
        assert abs(prod.mean() - want) < 4.0 * prod.std() / math.sqrt(n)


# -- Telecom characteristic function -------------------------------------------------


def test_telecom_logchf_zero_and_conjugate_symmetry():
    assert lf.telecom_logchf(0.0, 1.0, 1.5, 1.0) == 0j
    for th, x, a, c, mu in [(0.9, 1.0, 1.5, 1.0, 1.0), (2.4, 0.7, 1.2, 3.0, 2.0)]:
        za = lf.telecom_logchf(th, x, a, c, mu)
        zb = lf.telecom_logchf(-th, x, a, c, mu)
        assert abs(za - zb.conjugate()) <= 1e-9


def test_telecom_logchf_validation():
    with pytest.raises(ValueError):
        lf.telecom_logchf(1.0, 1.0, 2.3, 1.0)
    with pytest.raises(ValueError):
        lf.telecom_logchf(1.0, -1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        lf.telecom_logchf(1.0, 1.0, 1.5, 1.0, mu=0.0)


def test_telecom_logchf_small_theta_variance_probe():
    # -2 Re log-chf / theta^2 -> Var, with an O(theta^2) fourth-cumulant correction
    th = 1e-2
    val = lf.telecom_field_logchf(lf.TelecomSpec(alpha=1.5, c=1.0), th, 1.0, 1.0)
    assert -2.0 * val.real / th**2 == pytest.approx(16.0 / 3.0, rel=1e-5)


def _two_term_telecom_logchf(theta, x, alpha, c, mu):
    """Independent route to ``telecom_logchf``: a two-term adaptive quadrature.

    c/mu * int_0^inf Psi(-theta/mu * (x ∧ r)) r^-alpha dr
    - i*theta*c/mu^2 * int_0^x (e^{-i*theta*r/mu} - 1)(x - r) r^-alpha dr,
    with Psi(z) = e^{iz} - 1 - iz in compensated form near r = 0; the second
    integrand flattens its r^(1-alpha) endpoint in a substitution r = q**n.
    """
    phi = -theta / mu

    def psi(z):
        return complex(nm.psi_array(z))

    opts = {"limit": 300, "epsabs": 1e-14, "epsrel": 1e-10}
    re1 = integrate.quad(lambda r: psi(phi * r).real * r**-alpha, 0.0, x, **opts)[0]
    im1 = integrate.quad(lambda r: psi(phi * r).imag * r**-alpha, 0.0, x, **opts)[0]
    term1 = (c / mu) * (complex(re1, im1) + psi(phi * x) * x ** (1.0 - alpha) / (alpha - 1.0))

    n_sub = max(2.0, 2.0 / (2.0 - alpha))

    def ramp(q):
        r = q**n_sub
        return n_sub * q ** (n_sub - 1.0) * (psi(phi * r) + 1j * phi * r) * (x - r) * r**-alpha

    sx = x ** (1.0 / n_sub)
    re2 = integrate.quad(lambda q: ramp(q).real, 0.0, sx, **opts)[0]
    im2 = integrate.quad(lambda q: ramp(q).imag, 0.0, sx, **opts)[0]
    return term1 - 1j * theta * (c / mu**2) * complex(re2, im2)


def test_telecom_logchf_matches_two_term_quadrature():
    for th, x, alpha, c, mu in [(1.1, 2.0, 1.4, 2.0, 3.0), (-0.6, 0.9, 1.4, 2.0, 3.0), (2.4, 0.7, 1.2, 3.0, 2.0)]:
        want = _two_term_telecom_logchf(th, x, alpha, c, mu)
        assert lf.telecom_logchf(th, x, alpha, c, mu) == pytest.approx(want, rel=1e-8)


def test_chf_oracles_make_no_adaptive_quad_call(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("adaptive quad called")

    monkeypatch.setattr(integrate, "quad", no_quad)
    assert lf.telecom_logchf(1.1, 2.0, 1.4, 2.0, 3.0) != 0.0
    models = [
        RectIndep(DegenerateDist(1.0), RegVaryingDist(1.5, 1.0)),
        RectIndep(UniformDist(0.5, 2.0), RegVaryingDist(1.5, 1.0)),
        RectCoupled(RegVaryingDist(1.7, 1.0), 0.8),
        BrownianPulse(RegVaryingDist(2.5, 1.0)),
        ExpDamped(LowTailPowerDist(0.5), RegVaryingDist(1.2, 1.0)),
    ]
    for model in models:
        assert shot_noise.intermediate_logchf(model, 0.8, 1.0) != 0.0
    assert lf.intermediate_kappa_field_chf([1.2, -0.7], [(0.5, 1.0), (1.0, 0.5)], 1.8, 1.4, 1.0) != 0.0


def test_telecom_logchf_y_linearity():
    spec = lf.TelecomSpec(alpha=1.6, c=0.7)
    a = lf.telecom_field_logchf(spec, 1.3, 1.1, 2.5)
    b = lf.telecom_field_logchf(spec, 1.3, 1.1, 1.0)
    assert a == pytest.approx(2.5 * b, rel=1e-12)


def test_telecom_field_self_similarity_exact():
    # J(lam x, lam^(alpha-1) y) has the ch.f. of lam J(x, y)
    spec = lf.TelecomSpec(alpha=1.5, c=1.0)
    for lam in (2.0, 4.0):
        for th in (0.25, -0.7, 1.5):
            lhs = lf.telecom_field_logchf(spec, th, lam * 1.0, lam ** (spec.alpha - 1.0))
            rhs = lf.telecom_field_logchf(spec, lam * th, 1.0, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-7)


def test_telecom_field_self_similarity_monte_carlo():
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.01)
    n = 15_000
    for lam in (2.0, 4.0):
        left = lf.sample_telecom(spec, [lam], lam**0.5, rng_for(f"ss-l{lam}"), n_rep=n)[:, 0]
        right = lam * lf.sample_telecom(spec, [1.0], 1.0, rng_for(f"ss-r{lam}"), n_rep=n)[:, 0]
        allowance = lf.small_jump_variance(spec, lam, lam**0.5) + lam * lam * lf.small_jump_variance(spec, 1.0)
        for th in (0.25, 0.5, 1.0):
            za, zb = np.exp(1j * th * left), np.exp(1j * th * right)
            emp_a, emp_b = complex(np.mean(za)), complex(np.mean(zb))
            se = math.sqrt(
                (np.var(za.real) + np.var(za.imag) + np.var(zb.real) + np.var(zb.imag)) / n
            )
            assert abs(emp_a - emp_b) < 3.0 * se + 0.5 * th * th * allowance


# -- kappa-stable field over product power measures -----------------------------------


def test_kappa_field_validation_and_zero():
    with pytest.raises(ValueError):
        lf.intermediate_kappa_field_chf([1.0], [(1.0, 1.0)], kappa=1.2, rho=1.4, c_nu=1.0)
    with pytest.raises(ValueError):
        lf.intermediate_kappa_field_chf([1.0], [(1.0, 1.0)], kappa=2.1, rho=1.4, c_nu=1.0)
    with pytest.raises(ValueError):
        lf.intermediate_kappa_field_chf([1.0, 2.0], [(1.0, 1.0)], kappa=1.7, rho=1.3, c_nu=1.0)
    assert lf.intermediate_kappa_field_chf([0.0], [(1.0, 1.0)], kappa=1.7, rho=1.3, c_nu=1.0) == 0j


def test_kappa_field_single_point_closed_form():
    kappa, rho, c_nu = 1.7, 1.3, 0.8
    x, y = 1.4, 0.9
    d_plus = (
        c_nu
        * math.gamma(2.0 - kappa)
        / ((kappa - 1.0) * kappa)
        * cmath.exp(-1j * math.pi * kappa / 2.0)
    )
    shape = x ** (kappa + 1.0 - rho) * (
        2.0 / ((kappa + 1.0) * (kappa + 1.0 - rho))
        + 1.0 / (kappa - rho)
        - 1.0 / (kappa + 1.0 - rho)
        + 2.0 / ((kappa + 1.0) * rho)
        + 1.0 / (rho - 1.0)
        - 1.0 / rho
    )
    for theta in (1.0, 2.3, -1.0):
        got = lf.intermediate_kappa_field_chf([theta], [(x, y)], kappa, rho, c_nu)
        base = y * abs(theta) ** kappa * shape
        want = base * d_plus if theta > 0 else base * d_plus.conjugate()
        assert got == pytest.approx(want, rel=1e-6)


def test_kappa_field_homogeneity_in_theta():
    got1 = lf.intermediate_kappa_field_chf([0.9], [(1.2, 1.0)], 1.6, 1.2, 1.0)
    got2 = lf.intermediate_kappa_field_chf([1.8], [(1.2, 1.0)], 1.6, 1.2, 1.0)
    assert got2 == pytest.approx(2.0**1.6 * got1, rel=1e-7)


def test_kappa_field_two_point_multi_self_similarity():
    kappa, rho, c_nu = 1.7, 1.3, 0.8
    h1 = (1.0 + kappa - rho) / kappa
    h2 = 1.0 / kappa
    lam1, lam2 = 1.7, 2.4
    pts = [(0.8, 1.1), (1.5, 0.6)]
    tv = [0.7, 0.5]
    lhs = lf.intermediate_kappa_field_chf(tv, [(lam1 * a, lam2 * b) for a, b in pts], kappa, rho, c_nu)
    rhs = lf.intermediate_kappa_field_chf(
        [lam1**h1 * lam2**h2 * t for t in tv], pts, kappa, rho, c_nu
    )
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_kappa_field_mixed_sign_conjugate_symmetry():
    pts = [(0.8, 1.1), (1.5, 0.6)]
    a = lf.intermediate_kappa_field_chf([0.9, -1.4], pts, 1.7, 1.3, 0.8)
    b = lf.intermediate_kappa_field_chf([-0.9, 1.4], pts, 1.7, 1.3, 0.8)
    assert a == pytest.approx(b.conjugate(), rel=1e-9)
    assert a.real < 0.0


def _nested_quad_kappa(theta_vec, points, kappa, rho, c_nu):
    """Independent route to the kappa-field log ch.f.: adaptive quad over arrivals
    inside adaptive quad over durations, the head in q with r = q**(2/(kappa-rho))."""
    d_plus = c_nu * math.gamma(2.0 - kappa) / ((kappa - 1.0) * kappa) * cmath.exp(-1j * math.pi * kappa / 2.0)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    thetas = np.asarray(theta_vec, dtype=float)
    segments, prev = [], 0.0
    for b in np.unique(ys):
        segments.append((b - prev, thetas[ys >= b], xs[ys >= b]))
        prev = b
    x_max = float(np.max(xs))

    def g_of_r(r, part):
        kinks = sorted({k for xj in xs for k in (0.0, xj, xj - r) if -r < k < x_max})

        def f(u):
            total = 0j
            for height, th, xv in segments:
                s = sum(t * max(0.0, min(xj, u + r) - max(u, 0.0)) for t, xj in zip(th, xv))
                total += height * abs(s) ** kappa * (d_plus if s > 0 else d_plus.conjugate())
            return total.real if part == "re" else total.imag

        return integrate.quad(f, -r, x_max, points=kinks, limit=200)[0]

    m = 2.0 / (kappa - rho)
    q_kinks = sorted({float(xj) ** (1.0 / m) for xj in xs if xj < x_max}) or None

    def component(part):
        head = integrate.quad(lambda q: m * q ** (-m * rho - 1.0) * g_of_r(q**m, part),
                              0.0, x_max ** (1.0 / m), points=q_kinks, limit=100)[0]
        tail = integrate.quad(lambda r: g_of_r(r, part) * r ** (-1.0 - rho), x_max, np.inf, limit=100)[0]
        return head + tail

    return complex(component("re"), component("im"))


def _kappa_single_point(theta, x, y, kappa, rho, c_nu):
    """Closed form of the one-point kappa field."""
    d_plus = c_nu * math.gamma(2.0 - kappa) / ((kappa - 1.0) * kappa) * cmath.exp(-1j * math.pi * kappa / 2.0)
    shape = x ** (kappa + 1.0 - rho) * (
        2.0 / ((kappa + 1.0) * (kappa + 1.0 - rho))
        + 1.0 / (kappa - rho)
        - 1.0 / (kappa + 1.0 - rho)
        + 2.0 / ((kappa + 1.0) * rho)
        + 1.0 / (rho - 1.0)
        - 1.0 / rho
    )
    base = y * abs(theta) ** kappa * shape
    return base * d_plus if theta > 0 else base * d_plus.conjugate()


def test_kappa_field_matches_nested_quadrature_mixed_sign():
    case = ([1.2, -0.7], [(0.5, 1.0), (1.0, 0.5)], 1.8, 1.4, 1.0)
    assert lf.intermediate_kappa_field_chf(*case) == pytest.approx(_nested_quad_kappa(*case), rel=1e-6)


def test_kappa_field_y_additivity():
    # points at one x with heights y1 < y2: sessions below y1 see both, the rest only the upper point
    kappa, rho, c_nu, x = 1.7, 1.3, 0.8, 1.2
    th1, th2, y1, y2 = 0.9, -1.6, 0.4, 1.5
    got = lf.intermediate_kappa_field_chf([th1, th2], [(x, y1), (x, y2)], kappa, rho, c_nu)
    one = lf.intermediate_kappa_field_chf([th1 + th2], [(x, 1.0)], kappa, rho, c_nu)
    two = lf.intermediate_kappa_field_chf([th2], [(x, 1.0)], kappa, rho, c_nu)
    assert got == pytest.approx(y1 * one + (y2 - y1) * two, rel=1e-10)


def test_kappa_field_merges_equal_points():
    merged = lf.intermediate_kappa_field_chf([1.2], [(0.7, 1.3)], 1.6, 1.2, 1.0)
    got = lf.intermediate_kappa_field_chf([0.6, 0.6], [(0.7, 1.3), (0.7, 1.3)], 1.6, 1.2, 1.0)
    assert got == pytest.approx(merged, rel=1e-10)
    # 1e-12 apart the field moves by about 1e-12; durations down to that gap
    # only resolve when kinks such as x - r keep their distance r from x
    near = lf.intermediate_kappa_field_chf([0.6, 0.6], [(0.7, 1.3), (0.7 + 1e-12, 1.3)], 1.6, 1.2, 1.0)
    assert near == pytest.approx(merged, rel=1e-11)


def test_kappa_field_closed_form_without_warnings_and_error_bound_honest():
    # the benchmark point, where the old nested quadrature hit its subdivision limit
    kappa, rho = 1.6, 1.3
    want = _kappa_single_point(1.0, 1.0, 1.0, kappa, rho, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lf.intermediate_kappa_field_chf([1.0], [(1.0, 1.0)], kappa, rho, 1.0)
        value, err = lf._kappa_field_logchf([1.0], [(1.0, 1.0)], kappa, rho, 1.0)
    assert abs(got - want) <= 1e-10 * abs(want)
    assert value == got
    assert err >= abs(value - want)


# -- scale limits of the Telecom field ------------------------------------------------


@pytest.mark.parametrize("direction, lambdas", [("small", (1.0, 0.25, 0.0625)), ("large", (4.0, 16.0, 64.0))],
                         ids=["small", "large"])
def test_telecom_field_rescaled_tends_to_its_scale_limits(direction, lambdas):
    # Gaigalas & Kaj (2003): as lam -> 0, lam**-H1 J(lam) tends to the Gaussian
    # marginal with H1 = (3 - alpha)/2; as lam -> infinity, lam**(-1/alpha) J(lam)
    # tends to the one-sided stable law with the duration tail constant as its
    # right tail.  The sup chf distance over the grid shrinks along each ladder
    a, c = 1.5, 1.0
    if direction == "small":
        exponent, var = -(3.0 - a) / 2.0, lf.telecom_variance(a, c, 1.0, 1.0)

        def limit_logchf(theta):
            return -0.5 * theta * theta * var
    else:
        exponent, stable = -1.0 / a, stable_params_from_tails(a, c, 0.0)

        def limit_logchf(theta):
            return complex(stable.logchf(theta))

    thetas = (-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 4.0)
    dist = [max(abs(cmath.exp(lf.telecom_logchf(-th * lam**exponent, lam, a, c)) - cmath.exp(limit_logchf(th)))
                for th in thetas)
            for lam in lambdas]
    assert all(later <= earlier for earlier, later in zip(dist, dist[1:]))
    assert dist[-1] < dist[0]
