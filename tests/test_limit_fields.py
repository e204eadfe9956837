"""Tests for the limit-field samplers and characteristic-function oracles."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from heavyagg import limit_fields as lf
from heavyagg import shot_noise
from heavyagg.heavy_tail import DegenerateDist, RegVaryingDist, StableParams, sample_stable
from heavyagg.pulses import RectIndep
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


def test_fbs_grid_rejects_bad_grids():
    spec = lf.FbsSpec(h1=0.7)
    rng = rng_for("fbs-bad")
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match="x_grid"):
            lf.sample_fbs_grid(spec, grid, [1.0], rng)
        with pytest.raises(ValueError, match="y_grid"):
            lf.sample_fbs_grid(spec, [1.0], grid, rng)


def test_stable_sheet_and_telecom_reject_bad_grids():
    params = StableParams(1.5, 1.0, 0.0)
    spec = lf.TelecomSpec(alpha=1.5)
    rng = rng_for("grid-bad")
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match="x_grid"):
            lf.sample_stable_sheet(params, grid, [1.0], rng)
        with pytest.raises(ValueError, match="y_grid"):
            lf.sample_stable_sheet(params, [1.0], grid, rng)
        with pytest.raises(ValueError, match="x_grid"):
            lf.sample_telecom(spec, grid, 1.0, rng)


def test_fbs_covariance_closed_form_anchor():
    spec = lf.FbsSpec(h1=0.75, c_w=2.0)
    assert lf.fbs_covariance(spec, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(4.0)
    # h1 = 1/2 makes the x-direction Brownian as well: cov = c^2 min(x,x') min(y,y')
    b = lf.FbsSpec(h1=0.5, c_w=1.0)
    assert lf.fbs_covariance(b, (1.0, 2.0), (3.0, 1.0)) == pytest.approx(1.0)
    assert lf.fbs_covariance(b, (2.0, 3.0), (5.0, 4.0)) == pytest.approx(2.0 * 3.0)


def test_fbs_empirical_covariance_on_grid():
    # every covariance entry of the sampled 4x4-point sheet within 3 SE of closed form
    spec = lf.FbsSpec(h1=0.8, c_w=1.0)
    xg = [0.5, 1.0, 1.5, 2.0]
    yg = [0.5, 1.0, 1.5, 2.0]
    n = 100_000
    field = lf.sample_fbs_grid(spec, xg, yg, rng_for("fbs-cov"), n_rep=n)
    flat = field.reshape(n, -1)
    pts = [(x, y) for x in xg for y in yg]
    emp = flat.T @ flat / n
    prods_se = np.empty((16, 16))
    for i in range(16):
        prods_se[i] = np.std(flat * flat[:, i : i + 1], axis=0) / math.sqrt(n)
    worst = 0.0
    for i in range(16):
        for j in range(16):
            want = lf.fbs_covariance(spec, pts[i], pts[j])
            worst = max(worst, abs(emp[i, j] - want) / prods_se[i, j])
    assert worst < 3.0


def test_fbs_mean_zero_and_gaussian_marginal():
    spec = lf.FbsSpec(h1=0.6, c_w=1.5)
    draws = lf.sample_fbs_grid(spec, [1.0], [1.0], rng_for("fbs-marg"), n_rep=40_000)[:, 0, 0]
    assert abs(np.mean(draws)) < 3.0 * np.std(draws) / math.sqrt(40_000)
    z = draws / math.sqrt(lf.fbs_covariance(spec, (1.0, 1.0), (1.0, 1.0)))
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_fbs_single_draw_shape():
    spec = lf.FbsSpec(h1=0.9)
    one = lf.sample_fbs_grid(spec, [1.0, 2.0], [1.0, 2.0, 3.0], rng_for("fbs-shape"))
    assert one.shape == (2, 3)


# -- stable Levy sheet ---------------------------------------------------------------


def test_stable_sheet_marginals_and_increments():
    params = StableParams(1.5, 1.0, 1.0)
    rng = rng_for("sheet")
    field = lf.sample_stable_sheet(params, [1.0, 2.0], [1.0, 3.0], rng, n_rep=20_000)
    direct = sample_stable(params, rng, size=20_000)
    # unit cell, an x-increment cell, and a y-slab scaled back down
    assert stats.ks_2samp(field[:, 0, 0], direct).pvalue > 0.01
    assert stats.ks_2samp(field[:, 1, 0] - field[:, 0, 0], direct).pvalue > 0.01
    slab = (field[:, 0, 1] - field[:, 0, 0]) / 2.0 ** (1.0 / 1.5)
    assert stats.ks_2samp(slab, direct).pvalue > 0.01


def test_stable_sheet_rectangle_increments_independent():
    # distance covariance between disjoint-rectangle increments is permutation-null
    params = StableParams(1.3, 1.0, 0.5)
    rng = rng_for("sheet-dcov")
    n = 1500
    field = lf.sample_stable_sheet(params, [1.0, 2.0], [1.0, 2.0], rng, n_rep=n)
    inc_a = field[:, 0, 0]
    inc_b = field[:, 1, 1] - field[:, 0, 1] - field[:, 1, 0] + field[:, 0, 0]

    def centered_dist(v):
        d = np.abs(v[:, None] - v[None, :])
        return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()

    a = centered_dist(inc_a)
    b = centered_dist(inc_b)
    observed = float(np.mean(a * b))
    perm_rng = rng_for("sheet-dcov-perm")
    hits = 0
    n_perm = 300
    for _ in range(n_perm):
        p = perm_rng.permutation(n)
        if float(np.mean(a * b[np.ix_(p, p)])) >= observed:
            hits += 1
    pvalue = (hits + 1) / (n_perm + 1)
    assert pvalue > 0.01


def test_stable_sheet_skewness_sign():
    # beta = 1 cells: strongly right-skewed sums
    params = StableParams(1.5, 1.0, 1.0)
    field = lf.sample_stable_sheet(params, [1.0], [1.0], rng_for("sheet-skew"), n_rep=30_000)
    draws = field[:, 0, 0]
    assert np.quantile(draws, 0.999) > -np.quantile(draws, 0.001)


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


@pytest.mark.parametrize("one_rep_batches", [False, True])
def test_telecom_sampler_cross_x_covariance(monkeypatch, one_rep_batches):
    # stationary increments: Cov(J(x1), J(x2)) = (V(x1) + V(x2) - V(x2 - x1)) / 2,
    # with V the variance of the eps-cut field
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.05)
    xs = (0.5, 1.0, 2.0)
    n = 10_000
    batch_sizes = []
    if one_rep_batches:
        monkeypatch.setattr(lf, "TELECOM_CHUNK_POINTS", 1)
        kernel = shot_noise.integrated_path_batch

        def counting_kernel(src, cuts, rng, n_rep):
            batch_sizes.append(n_rep)
            return kernel(src, cuts, rng, n_rep)

        monkeypatch.setattr(shot_noise, "integrated_path_batch", counting_kernel)
    draws = lf.sample_telecom(spec, xs, 1.0, rng_for("tele-cov"), n_rep=n)
    if one_rep_batches:
        assert batch_sizes == [1] * n

    def var(x):
        return lf.telecom_variance(spec.alpha, spec.c, x) - lf.small_jump_variance(spec, x)

    centred = draws - draws.mean(axis=0)
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        x1, x2 = xs[i], xs[j]
        want = 0.5 * (var(x1) + var(x2) - var(x2 - x1))
        prod = centred[:, i] * centred[:, j]
        assert abs(prod.mean() - want) < 4.0 * prod.std() / math.sqrt(n)


def test_telecom_sampler_warns_when_budget_exceeded():
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.5, var_tol=1e-3)
    with pytest.warns(UserWarning, match="truncation variance bound"):
        lf.sample_telecom(spec, [1.0], 1.0, rng_for("tele-warn"), n_rep=2)


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


def test_telecom_logchf_matches_critical_shot_noise_route():
    # unit-amplitude rectangular sessions at the critical growth exponent give the
    # same log ch.f. through an entirely separate reduction
    c, mu, alpha = 2.0, 3.0, 1.4
    model = RectIndep(DegenerateDist(1.0), RegVaryingDist(alpha, (c / mu) ** (1.0 / alpha), "pareto-exact"))
    for th, x in [(1.1, 2.0), (-0.6, 0.9)]:
        mine = lf.telecom_logchf(th, x, alpha, c, mu)
        other = shot_noise.intermediate_logchf(model, -th / mu, x, 1.0)
        assert mine == pytest.approx(other, rel=1e-8)


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


# -- asymptotic self-similarity ladders -----------------------------------------------


def test_ss_check_exact_ladders_monotone():
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.01)
    rng = rng_for("ss-exact")
    small = lf.asymptotic_ss_check(spec, "small", [1.0, 0.25, 0.0625], 0, rng)
    large = lf.asymptotic_ss_check(spec, "large", [4.0, 16.0, 64.0], 0, rng)
    assert small.exact_monotone and large.exact_monotone
    assert small.exact_dist[-1] < small.exact_dist[0]
    assert large.exact_dist[-1] < large.exact_dist[0]
    assert small.empirical_dist == () and large.empirical_dist == ()
    assert not small.flags and not large.flags


def test_ss_check_sampler_consistency_at_one_rung():
    spec = lf.TelecomSpec(alpha=1.5, c=1.0, eps=0.01)
    report = lf.asymptotic_ss_check(spec, "small", [0.25], 5000, rng_for("ss-mc"))
    assert report.sampler_consistent
    assert len(report.empirical_dist) == 1 and report.empirical_se[0] > 0.0


def test_ss_check_rejects_bad_arguments():
    spec = lf.TelecomSpec(alpha=1.5, c=1.0)
    with pytest.raises(ValueError):
        lf.asymptotic_ss_check(spec, "sideways", [1.0], 0, rng_for("ss-bad"))
    with pytest.raises(ValueError):
        lf.asymptotic_ss_check(spec, "small", [0.0], 0, rng_for("ss-bad"))


# -- admissible scaling exponents -----------------------------------------------------


def test_hurst_range_of_known_limits():
    # fast-growth Gaussian branch of rectangular sessions: H = (3 - rho)/2 + gamma/2
    for rho in (1.2, 1.5, 1.8):
        h1 = (3.0 - rho) / 2.0
        for gamma in (rho - 1.0 + 0.2, 1.0, 2.0):
            assert lf.hurst_range_ok(gamma, h1 + gamma / 2.0)
        # slow-growth stable branch: H = (1 + gamma)/rho
        for gamma in (0.1, (rho - 1.0) / 2.0):
            assert lf.hurst_range_ok(gamma, (1.0 + gamma) / rho)
        # critical point: H = 1 at gamma = rho - 1
        assert lf.hurst_range_ok(rho - 1.0, 1.0)
    assert not lf.hurst_range_ok(0.5, 1.8)
    assert not lf.hurst_range_ok(2.0, 0.9)
